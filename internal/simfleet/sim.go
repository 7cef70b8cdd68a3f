package simfleet

import (
	"math/bits"
	"slices"

	"maia/internal/bufpool"
	"maia/internal/simfault"
	"maia/internal/vclock"
)

// Stream tags for the fleet's deterministic draws: the second
// coordinate of simfault.EventSeed (simfault reserves the 100..199
// band for its own sampling streams).
const (
	sbArrival = 1 // interarrival gaps, keyed by arrival index
	sbClass   = 2 // job class draws, keyed by job ID
	sbFail    = 3 // hard-failure gaps, keyed by (node, draw index)
	sbRepair  = 4 // repair-duration jitter, keyed by (node, draw index)
	sbPlace   = 5 // random-policy placement, keyed by dispatch index
)

// defaultReplaceTime is the replacement cost charged for cordoned nodes
// when the MTBF profile defines no MTTR (the "none" profile): swapping
// a card is never free.
const defaultReplaceTime = 10 * minute

// Stats is what one fleet run reports: counters, rate/utilization
// rollups, and queue-wait quantiles, all pure functions of the Config.
type Stats struct {
	// Nodes, Duration, Scheduler, Profile echo the resolved config.
	Nodes     int
	Duration  vclock.Time
	Scheduler string
	Profile   string
	// DegradedStart counts nodes that started in a degraded condition.
	DegradedStart int
	// Arrivals and Completed count jobs offered and finished within the
	// horizon; Requeues counts re-submissions after a detected failure;
	// Lost counts jobs destroyed by failures with remediation off.
	Arrivals  int
	Completed int
	Requeues  int
	Lost      int
	// HardFailures, Rebalanced, Replaced, Repaired count fleet events:
	// failures struck, in-place rebalances, cordon-drain-replacements
	// begun, and hard failures detected into repair. Tolerated counts
	// degraded nodes the loop deliberately left in service because the
	// price table says replacing them would cost capacity.
	HardFailures int
	Rebalanced   int
	Replaced     int
	Repaired     int
	Tolerated    int
	// Throughput is completed jobs per virtual hour.
	Throughput float64
	// Utilization is aggregate busy time over nodes x duration.
	Utilization float64
	// QueueP50 and QueueP99 are dispatch-wait quantiles.
	QueueP50 vclock.Time
	QueueP99 vclock.Time
	// RecoveryPct is the overflow-class rebalance recovery (percent of
	// the straggler-induced slowdown recovered) of the first rebalance
	// this run performed; 0 when no rebalance happened.
	RecoveryPct float64
}

// nodeState is a node's scheduling state.
type nodeState int

const (
	stateReady    nodeState = iota // in service, schedulable
	stateCordoned                  // in service, draining toward replacement
	stateDown                      // failed, repairing, or being replaced
)

// job is one queued unit of work.
type job struct {
	id      int
	class   Class
	arrival vclock.Time
}

// fnode is one simulated node's mutable state.
type fnode struct {
	cond       string // condition name; "" = healthy
	rebalanced bool
	state      nodeState
	// epoch increments whenever the node leaves service; events carry
	// the epoch they were scheduled under, so stale completions and
	// failure draws are dropped instead of firing on a replaced node.
	epoch   int
	failK   int // next failure-gap draw index
	repairK int // next repair-jitter draw index
	// failed marks a struck node awaiting health-check detection.
	failed bool
	// tolerated marks a degraded node the loop decided to keep serving.
	tolerated bool
	// pendingJob is the job a failure interrupted, requeued at detection.
	pendingJob job
	hasPending bool
	// replacePending marks a draining node: replacement begins when the
	// running job completes.
	replacePending bool
	running        bool
	job            job
	jobStart       vclock.Time
	busy           vclock.Time
	// svc caches the per-class service times of the node's current
	// (cond, rebalanced) state, refreshed whenever either changes, so
	// dispatch indexes an array instead of hashing a condition name per
	// job.
	svc [numClasses]vclock.Time
}

// eventKind discriminates the event heap's entries.
type eventKind int

const (
	evArrival  eventKind = iota // next job enters the queue
	evComplete                  // a node finishes its job
	evHealth                    // periodic fleet-wide health check
	evFail                      // a hard failure strikes a node
	evRepair                    // a repair or replacement finishes
)

// event is one entry of the virtual-time priority queue.
type event struct {
	at    vclock.Time
	seq   uint64
	kind  eventKind
	node  int
	epoch int
}

// before orders events by time, then schedule sequence. The sequence
// tie-break makes (at, seq) a total order, so the order events fire in
// is a pure function of the schedule history, whichever queue holds
// them.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by before. Hand-rolled
// rather than container/heap because heap.Push boxes each event into an
// interface: one heap allocation per scheduled event, the fleet loop's
// dominant malloc source.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return before(&h[i], &h[j]) }

// push inserts e and sifts it up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && s.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// policy is the resolved scheduler, switched on per dispatch instead of
// comparing names.
type policy int

const (
	policyLeastLoaded policy = iota
	policyRandom
	policyRoundRobin
)

// loadEntry is one least-loaded heap slot: a node and its busy time,
// which cannot change while the node is eligible (only a running job
// accrues busy time), so the key is fixed for as long as it is indexed.
type loadEntry struct {
	busy vclock.Time
	node int32
}

// loadHeap is an indexed binary min-heap of the eligible nodes ordered
// by (busy, node): its minimum is the node the least-loaded scan's
// strict < picks, the lowest-indexed among the least busy. pos[i] is
// node i's slot, valid only while the node is in the heap. Fixed arrays
// sized for the largest fleet keep it inside the sim allocation.
type loadHeap struct {
	e   [MaxNodes]loadEntry
	pos [MaxNodes]int32
	n   int
}

func (h *loadHeap) less(a, b int) bool {
	if h.e[a].busy != h.e[b].busy {
		return h.e[a].busy < h.e[b].busy
	}
	return h.e[a].node < h.e[b].node
}

func (h *loadHeap) swap(a, b int) {
	h.e[a], h.e[b] = h.e[b], h.e[a]
	h.pos[h.e[a].node] = int32(a)
	h.pos[h.e[b].node] = int32(b)
}

func (h *loadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *loadHeap) down(i int) {
	for {
		small := i
		if l := 2*i + 1; l < h.n && h.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < h.n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// add indexes node i under its busy time.
func (h *loadHeap) add(i int, busy vclock.Time) {
	h.e[h.n] = loadEntry{busy: busy, node: int32(i)}
	h.pos[i] = int32(h.n)
	h.n++
	h.up(h.n - 1)
}

// remove drops node i from the heap.
func (h *loadHeap) remove(i int) {
	at := int(h.pos[i])
	h.n--
	if at == h.n {
		return
	}
	h.e[at] = h.e[h.n]
	h.pos[h.e[at].node] = int32(at)
	h.down(at)
	h.up(at)
}

// isRebalanceCondition reports whether the remediation loop fixes the
// condition in place by rebalancing on measured speeds (compute-side
// degradation); other conditions need cordon/drain/replace.
func isRebalanceCondition(cond string) bool {
	return cond == "phi-straggler" || cond == "thermal-throttle"
}

// sim is one run's full state.
type sim struct {
	cfg     Config
	profile MTBFProfile
	nodes   []fnode
	events  eventHeap
	seq     uint64
	now     vclock.Time
	// arrival is the one pending job arrival, held beside the heap rather
	// than in it (every arrival schedules the next, so there is never more
	// than one): that saves a push and a pop per job, about half the heap
	// traffic. hasArrival is false once the next arrival falls past the
	// horizon.
	arrival    event
	hasArrival bool

	// queue[qhead:] is the pending-job FIFO: popping the front advances
	// qhead instead of re-slicing (which makes append grow a fresh
	// backing array every time the old front is still referenced), and
	// enqueue compacts the drained prefix away before growing.
	queue       []job
	qhead       int
	waits       []vclock.Time
	meanInter   vclock.Time
	lastArrival vclock.Time
	arrivalK    int
	dispatchK   int
	rrCursor    int

	// The eligible-node index, kept current by mark so dispatch never
	// scans the fleet: bit i of idle is set while node i is eligible,
	// nIdle counts the set bits, and byLoad orders the same nodes for
	// the least-loaded policy (maintained only under that policy).
	policy policy
	idle   [MaxNodes / 64]uint64
	nIdle  int
	byLoad loadHeap

	stats Stats
}

// Run's scratch — node states, the event heap, the job queue, the
// dispatch-wait sample — recycles through size-classed pools, so a
// fleet sweep's steady state allocates almost nothing per run.
var (
	nodePool  bufpool.Pool[fnode]
	eventPool bufpool.Pool[event]
	jobPool   bufpool.Pool[job]
	waitPool  bufpool.Pool[vclock.Time]
)

// policies resolves scheduler names; withDefaults has already rejected
// any name outside the catalog.
var policies = map[string]policy{
	"least-loaded": policyLeastLoaded,
	"random":       policyRandom,
	"round-robin":  policyRoundRobin,
}

// Run simulates one fleet and returns its statistics. The result is a
// pure function of cfg: equal configs (and equal price tables) yield
// identical Stats regardless of how the table was built or how many
// runs execute concurrently.
func Run(cfg Config) (Stats, error) {
	cfg, profile, err := cfg.withDefaults()
	if err != nil {
		return Stats{}, err
	}
	s := &sim{cfg: cfg, profile: profile, nodes: nodePool.GetZeroed(cfg.Nodes), policy: policies[cfg.Scheduler]}
	s.events = eventPool.Get(4*cfg.Nodes + 64)[:0]
	s.queue = jobPool.Get(2*cfg.Nodes + 64)[:0]
	s.stats = Stats{
		Nodes:     cfg.Nodes,
		Duration:  cfg.Duration,
		Scheduler: cfg.Scheduler,
		Profile:   cfg.Profile,
	}
	for i := range s.nodes {
		cond := s.startCondition(i)
		s.nodes[i].cond = cond
		s.refreshPrices(&s.nodes[i])
		if cond != "" {
			s.stats.DegradedStart++
		}
		s.mark(i)
	}
	s.meanInter = cfg.Prices.MeanHealthy() / vclock.Time(float64(cfg.Nodes)*cfg.Load)
	// Size the wait sample for the expected arrival count so steady-state
	// runs never regrow it; the estimate only seeds the capacity class.
	if est := int(float64(cfg.Duration)/float64(s.meanInter)) + 16; est > 0 {
		s.waits = waitPool.Get(est)[:0]
	}
	s.pushArrival()
	if profile.MTBF > 0 {
		for i := range s.nodes {
			s.scheduleFailure(i)
		}
	}
	if cfg.Remediate {
		s.push(event{at: cfg.HealthEvery, kind: evHealth})
	}

	for {
		e, ok := s.next()
		if !ok {
			break
		}
		s.now = e.at
		switch e.kind {
		case evArrival:
			s.arrive()
		case evComplete:
			s.complete(e)
		case evHealth:
			s.healthCheck()
		case evFail:
			s.fail(e)
		case evRepair:
			s.repairDone(e)
		}
	}
	s.finish()
	nodePool.Put(s.nodes)
	eventPool.Put(s.events)
	jobPool.Put(s.queue)
	waitPool.Put(s.waits)
	return s.stats, nil
}

// refreshPrices recomputes a node's cached per-class service times from
// its current condition and rebalance state.
func (s *sim) refreshPrices(n *fnode) {
	for c := Class(0); c < numClasses; c++ {
		n.svc[c] = s.cfg.Prices.Service(n.cond, c, n.rebalanced)
	}
}

// startCondition resolves node i's starting condition.
func (s *sim) startCondition(i int) string {
	switch s.cfg.Condition {
	case ConditionHealthy:
		return ""
	case ConditionSampled:
		return simfault.SampleCondition(s.cfg.Seed, i)
	default:
		return s.cfg.Condition
	}
}

// push enqueues an event with the next sequence number. Events past the
// horizon are dropped instead: the loop would never pop them, and they
// would only deepen the heap every other event sifts through. They still
// consume a sequence number, so the kept events' tie order is unchanged.
func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	if e.at > s.cfg.Duration {
		return
	}
	s.events.push(e)
}

// next removes and returns the earliest pending event by (at, seq) —
// the arrival slot or the heap top — or reports false when none is left.
func (s *sim) next() (event, bool) {
	if s.hasArrival && (len(s.events) == 0 || before(&s.arrival, &s.events[0])) {
		s.hasArrival = false
		return s.arrival, true
	}
	if len(s.events) == 0 {
		return event{}, false
	}
	return s.events.pop(), true
}

// enqueue appends a job to the pending FIFO, first compacting the
// drained prefix so a long-lived queue reuses its backing array instead
// of growing past it.
func (s *sim) enqueue(j job) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	s.queue = append(s.queue, j)
}

// pushArrival schedules the next job arrival from the seeded
// exponential interarrival stream into the arrival slot. Like push, it
// consumes a sequence number even when the arrival falls past the
// horizon and leaves the slot empty.
func (s *sim) pushArrival() {
	s.lastArrival += simfault.Exp(s.meanInter, s.cfg.Seed, s.arrivalK, sbArrival, 0)
	s.arrival = event{at: s.lastArrival, seq: s.seq, kind: evArrival}
	s.seq++
	s.hasArrival = s.arrival.at <= s.cfg.Duration
}

// arrive enqueues the arriving job, schedules the next arrival, and
// tries to place work.
func (s *sim) arrive() {
	id := s.arrivalK
	class := Class(simfault.Intn(s.cfg.Seed, id, sbClass, 0, int(numClasses)))
	s.arrivalK++
	s.stats.Arrivals++
	s.enqueue(job{id: id, class: class, arrival: s.now})
	s.pushArrival()
	s.dispatch()
}

// dispatch places queued jobs on eligible nodes until one side runs dry.
func (s *sim) dispatch() {
	for s.qhead < len(s.queue) {
		ni := s.pickNode()
		if ni < 0 {
			return
		}
		j := s.queue[s.qhead]
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		n := &s.nodes[ni]
		n.running, n.job, n.jobStart = true, j, s.now
		s.mark(ni)
		s.waits = append(s.waits, s.now-j.arrival)
		s.push(event{at: s.now + n.svc[j.class], kind: evComplete, node: ni, epoch: n.epoch})
		s.dispatchK++
	}
}

// eligible reports whether node i can accept a job right now.
func (s *sim) eligible(i int) bool {
	n := &s.nodes[i]
	return n.state == stateReady && !n.running && !n.failed
}

// mark brings the eligible-node index up to date with node i. Every
// change to a node's state, running, or failed field calls it.
func (s *sim) mark(i int) {
	w, bit := i/64, uint64(1)<<(i%64)
	was := s.idle[w]&bit != 0
	if s.eligible(i) == was {
		return
	}
	s.idle[w] ^= bit
	if was {
		s.nIdle--
	} else {
		s.nIdle++
	}
	if s.policy == policyLeastLoaded {
		if was {
			s.byLoad.remove(i)
		} else {
			s.byLoad.add(i, s.nodes[i].busy)
		}
	}
}

// pickNode selects the next node per the scheduler policy, or -1 when
// no node is eligible. Each policy picks exactly the node a linear scan
// of eligible(i) over the fleet would.
func (s *sim) pickNode() int {
	if s.nIdle == 0 {
		return -1
	}
	switch s.policy {
	case policyRoundRobin:
		// The first eligible node at or after the cursor, wrapping.
		i := s.nextIdle(s.rrCursor % len(s.nodes))
		if i < 0 {
			i = s.nextIdle(0)
		}
		s.rrCursor = i + 1
		return i
	case policyRandom:
		// A seeded uniform draw among the eligible nodes in index order.
		return s.nthIdle(simfault.Intn(s.cfg.Seed, s.dispatchK, sbPlace, 0, s.nIdle))
	default: // least-loaded
		return int(s.byLoad.e[0].node)
	}
}

// nextIdle returns the lowest eligible node index >= from, or -1.
func (s *sim) nextIdle(from int) int {
	w := from / 64
	word := s.idle[w] &^ (1<<(from%64) - 1)
	for {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		if w++; w == len(s.idle) {
			return -1
		}
		word = s.idle[w]
	}
}

// nthIdle returns the k-th (0-based) eligible node in index order;
// k must be below nIdle.
func (s *sim) nthIdle(k int) int {
	for w, word := range s.idle {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1 // clear the lowest set bit
		}
		return w*64 + bits.TrailingZeros64(word)
	}
	panic("simfleet: nthIdle past the eligible count")
}

// complete finishes a node's job unless the event went stale (the node
// failed or was replaced mid-job).
func (s *sim) complete(e event) {
	n := &s.nodes[e.node]
	if e.epoch != n.epoch || !n.running {
		return
	}
	n.running = false
	n.busy += s.now - n.jobStart
	s.mark(e.node)
	s.stats.Completed++
	if n.replacePending {
		s.beginReplace(e.node)
		return
	}
	s.dispatch()
}

// disruptionBudget caps how many nodes the remediation loop may hold
// out of ready service at once (cordoned, draining, or replacing):
// roughly a tenth of the fleet, never less than one. Hard-failure
// repairs are exempt — a struck node is already unavailable, and
// fixing it only helps.
func disruptionBudget(nodes int) int { return 1 + nodes/10 }

// healthCheck runs the remediation pass over every node: detect struck
// nodes into repair (requeueing their interrupted job), rebalance
// compute-degraded nodes in place, and cordon degraded nodes toward
// replacement — but only when the price table says replacement wins
// (degraded nodes that still beat a healthy node on the job mix are
// tolerated in service) and only within the disruption budget (never
// cordon more than ~10% of the fleet at once; the rest retry next tick).
func (s *sim) healthCheck() {
	disrupted := 0
	for i := range s.nodes {
		if s.nodes[i].state != stateReady {
			disrupted++
		}
	}
	budget := disruptionBudget(len(s.nodes))
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.failed {
			n.failed = false
			s.mark(i)
			s.stats.Repaired++
			if n.hasPending {
				s.requeueFront(n.pendingJob)
				n.hasPending = false
				s.stats.Requeues++
			}
			s.push(event{at: s.now + s.repairDuration(i), kind: evRepair, node: i, epoch: n.epoch})
			continue
		}
		if n.state != stateReady || n.cond == "" {
			continue
		}
		if isRebalanceCondition(n.cond) {
			if !n.rebalanced {
				n.rebalanced = true
				s.refreshPrices(n)
				s.stats.Rebalanced++
				if s.stats.RecoveryPct == 0 {
					if r, ok := s.cfg.Prices.RebalanceRecovery(n.cond); ok {
						s.stats.RecoveryPct = r
					}
				}
			}
			continue
		}
		if mean, ok := s.cfg.Prices.MeanCondition(n.cond); ok && mean <= s.cfg.Prices.MeanHealthy() {
			if !n.tolerated {
				n.tolerated = true
				s.stats.Tolerated++
			}
			continue
		}
		if disrupted >= budget {
			continue
		}
		disrupted++
		n.state = stateCordoned
		s.mark(i)
		if n.running {
			n.replacePending = true
		} else {
			s.beginReplace(i)
		}
	}
	s.push(event{at: s.now + s.cfg.HealthEvery, kind: evHealth})
	s.dispatch()
}

// requeueFront puts an interrupted job back at the head of the FIFO, so
// detection-time requeues keep their original scheduling priority.
func (s *sim) requeueFront(j job) {
	if s.qhead > 0 {
		s.qhead--
		s.queue[s.qhead] = j
		return
	}
	s.queue = append(s.queue, job{})
	copy(s.queue[1:], s.queue)
	s.queue[0] = j
}

// beginReplace takes a cordoned node out of service and schedules the
// replacement's completion.
func (s *sim) beginReplace(i int) {
	n := &s.nodes[i]
	n.state = stateDown
	s.mark(i)
	n.epoch++
	n.replacePending = false
	s.stats.Replaced++
	s.push(event{at: s.now + s.repairDuration(i), kind: evRepair, node: i, epoch: n.epoch})
}

// repairDuration draws the jittered repair/replacement span for node i:
// the profile's MTTR (or the default replacement cost) scaled by a
// deterministic factor in [0.5, 1.5).
func (s *sim) repairDuration(i int) vclock.Time {
	n := &s.nodes[i]
	base := s.profile.MTTR
	if base <= 0 {
		base = defaultReplaceTime
	}
	jitter := 0.5 + simfault.Uniform(s.cfg.Seed, i, sbRepair, n.repairK)
	n.repairK++
	return vclock.Time(float64(base) * jitter)
}

// fail strikes node e.node with a hard failure unless the draw went
// stale (the node was repaired or replaced since the draw).
func (s *sim) fail(e event) {
	n := &s.nodes[e.node]
	if e.epoch != n.epoch {
		return
	}
	s.stats.HardFailures++
	n.epoch++
	n.state = stateDown
	n.failed = true
	n.replacePending = false
	if n.running {
		n.busy += s.now - n.jobStart
		n.running = false
		if s.cfg.Remediate {
			n.pendingJob, n.hasPending = n.job, true
		} else {
			s.stats.Lost++
		}
	}
	s.mark(e.node)
}

// repairDone returns a node to service: repaired or replaced hardware
// comes back healthy with a fresh failure clock.
func (s *sim) repairDone(e event) {
	n := &s.nodes[e.node]
	if e.epoch != n.epoch {
		return
	}
	n.state = stateReady
	n.cond = ""
	n.rebalanced = false
	n.failed = false
	n.tolerated = false
	s.mark(e.node)
	s.refreshPrices(n)
	if s.profile.MTBF > 0 {
		s.scheduleFailure(e.node)
	}
	s.dispatch()
}

// scheduleFailure draws node i's next hard-failure gap and enqueues it.
func (s *sim) scheduleFailure(i int) {
	n := &s.nodes[i]
	gap := simfault.Exp(s.profile.MTBF, s.cfg.Seed, i, sbFail, n.failK)
	n.failK++
	s.push(event{at: s.now + gap, kind: evFail, node: i, epoch: n.epoch})
}

// finish clips still-running jobs at the horizon and computes the
// rate, utilization, and quantile rollups.
func (s *sim) finish() {
	var busy vclock.Time
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.running {
			n.busy += s.cfg.Duration - n.jobStart
			n.running = false
		}
		busy += n.busy
	}
	s.stats.Utilization = float64(busy) / (float64(s.cfg.Duration) * float64(s.cfg.Nodes))
	s.stats.Throughput = float64(s.stats.Completed) / (float64(s.cfg.Duration) / float64(hour))
	if len(s.waits) > 0 {
		// The sample is dead after this, so sort in place: value order is
		// all the quantiles read, and any ascending sort yields it.
		slices.Sort(s.waits)
		s.stats.QueueP50 = quantile(s.waits, 0.50)
		s.stats.QueueP99 = quantile(s.waits, 0.99)
	}
}

// quantile reads the q-th quantile of an ascending-sorted sample.
func quantile(sorted []vclock.Time, q float64) vclock.Time {
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}
