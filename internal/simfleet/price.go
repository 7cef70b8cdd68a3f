package simfleet

import (
	"fmt"
	"sync"

	"maia/internal/apps/overflow"
	"maia/internal/core"
	"maia/internal/machine"
	"maia/internal/npb"
	"maia/internal/offload"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simmpi"
	"maia/internal/vclock"
	"maia/internal/workgroup"
)

// Class is one fleet job class: a unit of work whose service time the
// closed-form engines price per machine condition.
type Class int

// The job classes the fleet schedules, each with a distinct degradation
// signature: MG offload pays Phi compute and PCIe transfers, the
// symmetric OVERFLOW step is the rebalance-sensitive class (the 92%
// recovery lever), and the mixed allreduce phase is communication-bound
// — insensitive to compute stragglers but exposed to a lossy PCIe bus.
const (
	// ClassMGOffload is one NPB MG class-C run through the offload
	// engine (host fallback armed, so a dead Phi degrades, not errors).
	ClassMGOffload Class = iota
	// ClassOverflowSym is a block of symmetric-mode OVERFLOW DLRF6
	// steps; the only class whose price splits static vs rebalanced.
	ClassOverflowSym
	// ClassCGAllreduce is a CG-style phase of mixed host+Phi allreduce
	// operations.
	ClassCGAllreduce
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassMGOffload:
		return "mg-offload"
	case ClassOverflowSym:
		return "overflow-sym"
	case ClassCGAllreduce:
		return "cg-allreduce"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes returns every job class in scheduling order.
func Classes() []Class {
	return []Class{ClassMGOffload, ClassOverflowSym, ClassCGAllreduce}
}

// Job-size multipliers: how many engine units one scheduled job spans.
const (
	overflowStepsPerJob = 10   // symmetric DLRF6 steps per OVERFLOW job
	cgOpsPerJob         = 2000 // 64 KiB allreduce operations per CG job
	cgMsgBytes          = 64 << 10
)

// Price is one class's service time on a degraded node, before and
// after the remediation loop rebalances it. Classes without a rebalance
// lever carry Static == Rebalanced.
type Price struct {
	// Static is the service time under the condition's static balance.
	Static vclock.Time
	// Rebalanced is the service time after rebalancing on measured speeds.
	Rebalanced vclock.Time
}

// PriceTable holds every (condition, class) service time one model
// admits: the closed-form engines run once per entry at table-build
// time, and the fleet's event loop is pure arithmetic afterwards.
type PriceTable struct {
	// Healthy is the per-class service time of an undegraded node.
	Healthy [numClasses]vclock.Time
	// Degraded maps a sampleable condition name to its per-class prices.
	Degraded map[string][numClasses]Price
}

// Service returns the service time of one job of class c on a node in
// the named condition ("" = healthy), after rebalancing when rebalanced.
func (t *PriceTable) Service(condition string, c Class, rebalanced bool) vclock.Time {
	if condition == "" {
		return t.Healthy[c]
	}
	p := t.Degraded[condition][c]
	if rebalanced {
		return p.Rebalanced
	}
	return p.Static
}

// MeanHealthy returns the mean healthy service time across classes —
// the scale the arrival process targets its load against.
func (t *PriceTable) MeanHealthy() vclock.Time {
	var sum vclock.Time
	for _, v := range t.Healthy {
		sum += v
	}
	return sum / vclock.Time(numClasses)
}

// MeanCondition returns the mean static service time across classes of
// a node in the named condition — what the remediation loop weighs
// against MeanHealthy before cordoning: a degraded node that still
// beats a healthy one on the mix (a dead Phi whose host fallback
// outruns MG offload, say) is worth more in service than in a repair
// bay. The second result is false for unknown conditions.
func (t *PriceTable) MeanCondition(condition string) (vclock.Time, bool) {
	p, ok := t.Degraded[condition]
	if !ok {
		return 0, false
	}
	var sum vclock.Time
	for _, c := range Classes() {
		sum += p[c].Static
	}
	return sum / vclock.Time(numClasses), true
}

// RebalanceRecovery returns the fraction (in percent) of the
// straggler-induced overflow-class slowdown that rebalancing recovers
// on nodes in the named condition — ext-fault-straggler's headline
// metric, generalized. The second result is false when the condition
// has no static-vs-rebalanced gap to recover.
func (t *PriceTable) RebalanceRecovery(condition string) (float64, bool) {
	p, ok := t.Degraded[condition]
	if !ok {
		return 0, false
	}
	static := p[ClassOverflowSym].Static
	rebalanced := p[ClassOverflowSym].Rebalanced
	healthy := t.Healthy[ClassOverflowSym]
	if static <= healthy || static == rebalanced {
		return 0, false
	}
	return 100 * float64(static-rebalanced) / float64(static-healthy), true
}

// priceTask prices one (condition, class) cell on its own node clone.
type priceTask struct {
	condition string // "" = healthy
	class     Class
}

// NewPriceTable prices every (condition, class) cell for the model:
// healthy plus each sampleable simfault condition, each through the
// engine that owns the class. workers > 1 fans the cells out across
// goroutines — each cell runs on its own node clone and writes its own
// slot, so the table is byte-identical to the sequential build.
func NewPriceTable(m core.Model, node *machine.Node, workers int) (*PriceTable, error) {
	// The MG host-fallback rate comes from the repository's own MG
	// numbers, exactly as ext-fault-failover derives it.
	host, err := npb.OMPTime(m, npb.MG, npb.ClassC, machine.HostPartition(node, 1))
	if err != nil {
		return nil, err
	}
	phi, err := npb.OMPTime(m, npb.MG, npb.ClassC, machine.PhiThreadsPartition(node, machine.Phi0, 177))
	if err != nil {
		return nil, err
	}
	hostRate := host.Time.Seconds() / phi.Time.Seconds()

	conditions := simfault.SampleConditions()
	var tasks []priceTask
	for _, c := range Classes() {
		tasks = append(tasks, priceTask{condition: "", class: c})
		for _, cond := range conditions {
			tasks = append(tasks, priceTask{condition: cond, class: c})
		}
	}
	prices := make([]Price, len(tasks))
	errs := make([]error, len(tasks))
	g := workgroup.New(workers)
	for i, task := range tasks {
		g.Go(func() { prices[i], errs[i] = priceCell(m, node.Clone(), task, hostRate) })
	}
	g.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simfleet: pricing %s under %q: %w",
				tasks[i].class, tasks[i].condition, err)
		}
	}

	t := &PriceTable{Degraded: make(map[string][numClasses]Price, len(conditions))}
	for i, task := range tasks {
		if task.condition == "" {
			t.Healthy[task.class] = prices[i].Static
			continue
		}
		row := t.Degraded[task.condition]
		row[task.class] = prices[i]
		t.Degraded[task.condition] = row
	}
	return t, nil
}

// priceCell prices one (condition, class) cell.
func priceCell(m core.Model, node *machine.Node, task priceTask, hostRate float64) (Price, error) {
	var plan *simfault.Plan
	if task.condition != "" {
		p, err := simfault.ByName(task.condition)
		if err != nil {
			return Price{}, err
		}
		plan = p
	}
	switch task.class {
	case ClassMGOffload:
		res, err := npb.MGOffload(m, npb.ClassC, node, npb.OffloadSubroutine,
			offload.WithFaultPlan(plan),
			offload.WithHostFallback(func(k vclock.Time) vclock.Time {
				return vclock.Time(float64(k) * hostRate)
			}))
		if err != nil {
			return Price{}, err
		}
		return Price{Static: res.Time, Rebalanced: res.Time}, nil
	case ClassOverflowSym:
		return priceOverflow(m, node, plan)
	case ClassCGAllreduce:
		return priceAllreduce(m, node, plan)
	}
	return Price{}, fmt.Errorf("unknown class %d", task.class)
}

// priceOverflow prices a block of symmetric OVERFLOW steps: the healthy
// static balance, the condition's static balance, and the rebalanced
// balance the remediation loop switches a node to. A dead coprocessor
// has no symmetric mode at all — the job runs host-only instead.
func priceOverflow(m core.Model, node *machine.Node, plan *simfault.Plan) (Price, error) {
	if plan.Failed(machine.Phi0, 0) || plan.Failed(machine.Phi1, 0) {
		step, err := overflow.HostOnlyStepTime(m, node)
		if err != nil {
			return Price{}, err
		}
		t := step * overflowStepsPerJob
		return Price{Static: t, Rebalanced: t}, nil
	}
	cfg := overflow.SymmetricConfig{
		HostCombo: overflow.Combo{Ranks: 16, Threads: 1},
		PhiCombo:  overflow.Combo{Ranks: 8, Threads: 28},
		Software:  pcie.PostUpdate,
	}
	if !plan.Enabled() {
		step, err := overflow.SymmetricStepTime(m, node, cfg)
		if err != nil {
			return Price{}, err
		}
		t := step * overflowStepsPerJob
		return Price{Static: t, Rebalanced: t}, nil
	}
	cfg.Faults = plan
	static, rebalanced, err := overflow.SymmetricStepRebalanced(m, node, cfg)
	if err != nil {
		return Price{}, err
	}
	return Price{
		Static:     static * overflowStepsPerJob,
		Rebalanced: rebalanced * overflowStepsPerJob,
	}, nil
}

// priceAllreduce prices a CG-style phase of mixed host+Phi allreduce
// operations. When Phi0 is dead the scheduler lands the Phi side on the
// surviving card; there is no rebalance lever for a communication
// phase, so Static == Rebalanced.
func priceAllreduce(m core.Model, node *machine.Node, plan *simfault.Plan) (Price, error) {
	dev := machine.Phi0
	if plan.Failed(machine.Phi0, 0) {
		dev = machine.Phi1
	}
	cfg := simmpi.Config{
		Ranks: append(simmpi.HostPlacement(4, 1), simmpi.PhiPlacement(dev, 4, 1)...),
	}
	perOp, err := simmpi.CollectiveTime(cfg, simmpi.AllreduceKind, cgMsgBytes, 2,
		simmpi.WithFaultPlan(plan))
	if err != nil {
		return Price{}, err
	}
	t := perOp * cgOpsPerJob
	return Price{Static: t, Rebalanced: t}, nil
}

// tableMemo caches one PriceTable per model: the table is immutable
// once built and every fleet run under the same model shares it.
var tableMemo struct {
	sync.Mutex
	byModel map[core.Model]*PriceTable
}

// TableForModel returns the memoized price table for a model, building
// it (with the given worker fan-out) on first use. core.Model is a
// comparable value type, so the memo key is the full calibration.
func TableForModel(m core.Model, node *machine.Node, workers int) (*PriceTable, error) {
	tableMemo.Lock()
	defer tableMemo.Unlock()
	if t, ok := tableMemo.byModel[m]; ok {
		return t, nil
	}
	t, err := NewPriceTable(m, node, workers)
	if err != nil {
		return nil, err
	}
	if tableMemo.byModel == nil {
		tableMemo.byModel = make(map[core.Model]*PriceTable)
	}
	tableMemo.byModel[m] = t
	return t, nil
}
