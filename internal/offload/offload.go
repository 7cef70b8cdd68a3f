// Package offload models the Intel offload programming mode (Section 4.1,
// Figures 25–27): a host program marks regions that execute on a Phi, and
// the runtime moves the region's data over PCIe around each invocation.
//
// Each offload invocation is charged three cost components, matching the
// decomposition the paper extracts with OFFLOAD_REPORT (Section 6.9.1.4):
//
//   - host side: per-invocation setup plus gathering the input data into
//     pinned transfer buffers;
//   - PCIe: the DMA transfer of inputs (host to Phi) and outputs (Phi to
//     host) through the package pcie offload-DMA model;
//   - Phi side: per-invocation setup plus scattering the data into the
//     coprocessor's memory.
//
// The kernel's own execution time on the Phi is supplied by the caller
// (computed by the core execution model), so the engine cleanly separates
// "offload overhead" from "useful work" — exactly the split Figure 26
// plots.
package offload

import (
	"fmt"

	"maia/internal/machine"
	"maia/internal/pcie"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// Config holds the calibrated per-side costs of the offload runtime.
type Config struct {
	DMA  pcie.DMAConfig
	Path pcie.Path

	// HostSetup and PhiSetup are fixed per-invocation costs (pragma
	// dispatch, descriptor exchange, signal handling).
	HostSetup vclock.Time
	PhiSetup  vclock.Time

	// HostCopyGBs and PhiCopyGBs are the memcpy rates for
	// gathering/scattering offload buffers on each side.
	HostCopyGBs float64
	PhiCopyGBs  float64
}

// DefaultConfig returns the calibration used for Figures 25–27.
func DefaultConfig() Config {
	return Config{
		DMA:         pcie.DefaultDMAConfig(),
		Path:        pcie.HostPhi0,
		HostSetup:   40 * vclock.Microsecond,
		PhiSetup:    60 * vclock.Microsecond,
		HostCopyGBs: 10.0,
		PhiCopyGBs:  20.0,
	}
}

// Report is the OFFLOAD_REPORT-style ledger of an engine: cumulative
// counts and the three overhead components of Figure 26.
type Report struct {
	Invocations int
	BytesIn     int64 // host -> Phi
	BytesOut    int64 // Phi -> host

	HostTime     vclock.Time // setup + gather/scatter on the host
	TransferTime vclock.Time // PCIe DMA, both directions, incl. retry stalls
	PhiTime      vclock.Time // setup + gather/scatter on the Phi
	KernelTime   vclock.Time // useful work on the coprocessor

	// Degradation ledger, populated only when a fault plan injects
	// something (see package simfault): DMA retransmissions after seeded
	// drops, invocations completed on the host because the target
	// coprocessor failed, and the host time those fallback kernels took.
	Retries      int
	Fallbacks    int
	FallbackTime vclock.Time
}

// Overhead returns the total non-kernel time.
func (r Report) Overhead() vclock.Time {
	return r.HostTime + r.TransferTime + r.PhiTime
}

// String summarizes the ledger in an OFFLOAD_REPORT-like line.
func (r Report) String() string {
	return fmt.Sprintf("offloads=%d in=%dB out=%dB host=%v pcie=%v phi=%v kernel=%v",
		r.Invocations, r.BytesIn, r.BytesOut,
		r.HostTime, r.TransferTime, r.PhiTime, r.KernelTime)
}

// Engine executes offloaded regions and accumulates the ledger.
type Engine struct {
	cfg    Config
	report Report

	// Tracing state: tracer is nil when tracing is off; clock is the
	// engine's virtual timeline, advanced by every invocation (traced or
	// not) so time-dependent faults see when each offload dispatches.
	tracer *simtrace.Tracer
	track  string
	clock  vclock.Clock

	// Fault state: faults is the active plan (nil-safe); fabric is the
	// plan's entry for this engine's PCIe path, resolved once; fallback
	// converts a kernel's Phi time to host time when the target has
	// failed; invSeq numbers invocations for seeded drop decisions;
	// probed records that the dead target was already discovered (the
	// detection deadline is paid once, not per invocation).
	faults   *simfault.Plan
	fabric   *simfault.FabricFault
	fallback func(vclock.Time) vclock.Time
	invSeq   int
	probed   bool
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithTracer returns an option attaching a tracer (and the track name
// its spans appear under) to the engine. A nil tracer leaves tracing
// off.
func WithTracer(t *simtrace.Tracer, track string) EngineOption {
	return func(e *Engine) { e.SetTracer(t, track) }
}

// WithFaultPlan returns an option pricing the engine's offloads on the
// degraded machine the plan describes: lossy or derated PCIe DMA,
// throttled kernels, and whole-coprocessor failure (handled by falling
// back to the host). A nil or empty plan changes nothing.
func WithFaultPlan(p *simfault.Plan) EngineOption {
	return func(e *Engine) {
		e.faults = p
		e.fabric = nil
		if f, ok := p.Fabric("pcie:" + e.cfg.Path.String()); ok {
			e.fabric = &f
		}
	}
}

// WithHostFallback returns an option supplying the execution model for
// kernels that complete on the host after their target coprocessor
// failed: convert maps a kernel's nominal Phi execution time to its
// host execution time. Without this option fallback kernels are priced
// at Phi speed, a conservative stand-in.
func WithHostFallback(convert func(phiKernel vclock.Time) vclock.Time) EngineOption {
	return func(e *Engine) { e.fallback = convert }
}

// target returns the coprocessor this engine dispatches to: the remote
// end of its PCIe path.
func (e *Engine) target() machine.Device {
	if e.cfg.Path == pcie.HostPhi0 {
		return machine.Phi0
	}
	return machine.Phi1
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config, opts ...EngineOption) *Engine {
	e := &Engine{cfg: cfg}
	for _, o := range opts {
		o(e)
	}
	return e
}

// SetTracer attaches a tracer to the engine: each offload invocation
// emits its stage spans (marshal, DMA each way, scatter, kernel) on the
// given track. A nil tracer turns tracing off.
func (e *Engine) SetTracer(t *simtrace.Tracer, track string) {
	e.tracer = t
	e.track = track
}

// stage charges one stage of a synchronous offload to the engine's
// virtual timeline and, when tracing is on, lays it onto the trace
// track. The clock always advances so failure times ("Phi0 dead from
// t=2ms") land correctly even in untraced runs.
func (e *Engine) stage(name string, cat simtrace.Category, d vclock.Time, bytes int64) {
	t0 := e.clock.Now()
	if d > 0 {
		e.clock.Advance(d)
	}
	if e.tracer != nil {
		e.tracer.Span(e.track, cat, name, t0, e.clock.Now(), bytes)
	}
}

// retryStage charges the timeout-and-backoff stall of a dropped DMA
// transfer and records it in the fault ledger and trace. It returns
// immediately for the common healthy case.
func (e *Engine) retryStage(attempts int, bytes int64) {
	if attempts <= 1 || e.fabric == nil {
		return
	}
	penalty := e.fabric.RetryPenalty(attempts)
	e.stage("retry[pcie:"+e.cfg.Path.String()+"]", simtrace.CatFault, penalty, bytes)
	if e.tracer != nil {
		e.tracer.Count(simtrace.CatFault, "offload_retries", int64(attempts-1))
	}
	e.report.Retries += attempts - 1
	e.report.TransferTime += penalty
}

// traceCounts bumps the per-invocation offload counters.
func (e *Engine) traceCounts(inBytes, outBytes int64) {
	e.tracer.Count(simtrace.CatOffload, "invocations", 1)
	e.tracer.Count(simtrace.CatOffload, "bytes_in", inBytes)
	e.tracer.Count(simtrace.CatOffload, "bytes_out", outBytes)
}

// Report returns the cumulative ledger.
func (e *Engine) Report() Report { return e.report }

// Offload executes one offloaded region: inBytes are shipped to the Phi,
// kernelTime of work runs there, outBytes come back. body, when non-nil,
// really executes (so offloaded NPB kernels compute genuine results).
// The return value is the invocation's total virtual time as seen by the
// host program, which blocks for the duration (synchronous offload).
//
// Under a fault plan the invocation prices the degraded machine: DMA is
// derated and may stall on seeded drops, the kernel stretches through
// throttle windows, and a failed target coprocessor diverts the whole
// invocation to the host (see fallbackOffload) — the run still
// completes without error.
func (e *Engine) Offload(inBytes, outBytes int64, kernelTime vclock.Time, body func()) (vclock.Time, error) {
	if inBytes < 0 || outBytes < 0 {
		return 0, fmt.Errorf("offload: negative transfer size (%d in, %d out)", inBytes, outBytes)
	}
	if kernelTime < 0 {
		return 0, fmt.Errorf("offload: negative kernel time %v", kernelTime)
	}
	if e.faults.Failed(e.target(), e.clock.Now()) {
		return e.fallbackOffload(inBytes, outBytes, kernelTime, body)
	}
	if body != nil {
		body()
	}
	seq := e.invSeq
	e.invSeq++

	bytes := inBytes + outBytes
	host := e.cfg.HostSetup + vclock.Time(float64(bytes)/(e.cfg.HostCopyGBs*1e9))
	phi := e.cfg.PhiSetup + vclock.Time(float64(bytes)/(e.cfg.PhiCopyGBs*1e9))
	inT := e.transferTime(inBytes)
	outT := e.transferTime(outBytes)
	inAttempts, outAttempts := 1, 1
	if e.fabric != nil {
		if inBytes > 0 {
			inT = e.fabric.FlightTime(inT)
			inAttempts = e.faults.Attempts(*e.fabric, 0, 1, seq)
		}
		if outBytes > 0 {
			outT = e.fabric.FlightTime(outT)
			outAttempts = e.faults.Attempts(*e.fabric, 1, 0, seq)
		}
	}

	start := e.clock.Now()
	e.stage("marshal:host", simtrace.CatOffload, host, bytes)
	if inBytes > 0 {
		e.retryStage(inAttempts, inBytes)
		e.stage("dma:h2d", simtrace.CatPCIe, inT, inBytes)
	}
	e.stage("scatter:phi", simtrace.CatOffload, phi, bytes)
	kernel := e.faults.ComputeTime(e.target(), e.clock.Now(), kernelTime)
	e.stage("kernel", simtrace.CatCompute, kernel, 0)
	if outBytes > 0 {
		e.retryStage(outAttempts, outBytes)
		e.stage("dma:d2h", simtrace.CatPCIe, outT, outBytes)
	}
	if e.tracer != nil {
		e.traceCounts(inBytes, outBytes)
	}

	e.report.Invocations++
	e.report.BytesIn += inBytes
	e.report.BytesOut += outBytes
	e.report.HostTime += host
	e.report.TransferTime += inT + outT
	e.report.PhiTime += phi
	e.report.KernelTime += kernel

	return e.clock.Now() - start, nil
}

// fallbackOffload completes an invocation whose target coprocessor is
// failed. The first dispatch against the dead card pays the full
// detection deadline — every probe retransmission times out — after
// which the engine remembers the card is gone and dispatches straight
// to the host. The body still runs, so offloaded kernels keep computing
// genuine results; no PCIe or Phi-side costs are charged.
func (e *Engine) fallbackOffload(inBytes, outBytes int64, kernelTime vclock.Time, body func()) (vclock.Time, error) {
	if body != nil {
		body()
	}
	start := e.clock.Now()
	if !e.probed {
		e.probed = true
		f, ok := e.faults.Fabric("pcie:" + e.cfg.Path.String())
		if !ok {
			f = simfault.FabricFault{}
		}
		e.stage("probe[dead "+e.target().String()+"]", simtrace.CatFault, f.DetectionPenalty(), 0)
		if e.tracer != nil {
			e.tracer.Count(simtrace.CatFault, "offload_retries", int64(f.DetectionRetries()))
		}
		e.report.Retries += f.DetectionRetries()
		// The host blocks on the probe, so the deadline is host time.
		e.report.HostTime += f.DetectionPenalty()
	}
	kernel := kernelTime
	if e.fallback != nil {
		kernel = e.fallback(kernelTime)
	}
	// The host may itself be degraded (straggler or throttle entries).
	kernel = e.faults.ComputeTime(machine.Host, e.clock.Now(), kernel)
	e.stage("dispatch:host", simtrace.CatOffload, e.cfg.HostSetup, inBytes+outBytes)
	e.stage("kernel[host-fallback]", simtrace.CatCompute, kernel, 0)
	if e.tracer != nil {
		e.tracer.Count(simtrace.CatFault, "offload_fallbacks", 1)
	}
	e.report.Invocations++
	e.report.Fallbacks++
	e.report.HostTime += e.cfg.HostSetup
	e.report.FallbackTime += kernel
	return e.clock.Now() - start, nil
}

// pcieTransfer prices one DMA transfer under a config.
func pcieTransfer(cfg Config, bytes int) vclock.Time {
	return pcie.OffloadTransferTime(cfg.DMA, cfg.Path, bytes)
}
