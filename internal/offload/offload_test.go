package offload

import (
	"strings"
	"testing"

	"maia/internal/vclock"
)

func TestOffloadAccounting(t *testing.T) {
	e := NewEngine(DefaultConfig())
	total, err := e.Offload(1<<20, 1<<19, 5*vclock.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	if r.Invocations != 1 || r.BytesIn != 1<<20 || r.BytesOut != 1<<19 {
		t.Fatalf("ledger counts wrong: %+v", r)
	}
	if r.KernelTime != 5*vclock.Millisecond {
		t.Fatalf("kernel time %v", r.KernelTime)
	}
	if got := r.Overhead() + r.KernelTime + r.FallbackTime; got != total {
		t.Fatalf("ledger total %v, invocation returned %v", got, total)
	}
	if r.Overhead() != r.HostTime+r.TransferTime+r.PhiTime {
		t.Fatal("Overhead decomposition inconsistent")
	}
	if r.HostTime <= 0 || r.TransferTime <= 0 || r.PhiTime <= 0 {
		t.Fatalf("all three overhead components must be positive: %+v", r)
	}
}

func TestOffloadBodyRuns(t *testing.T) {
	e := NewEngine(DefaultConfig())
	ran := false
	if _, err := e.Offload(0, 0, 0, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	// Zero-byte offload still pays the setup costs.
	r := e.Report()
	if r.HostTime < DefaultConfig().HostSetup || r.PhiTime < DefaultConfig().PhiSetup {
		t.Fatal("setup costs not charged on empty offload")
	}
	if r.TransferTime != 0 {
		t.Fatal("no data, no transfer time")
	}
}

func TestOffloadValidation(t *testing.T) {
	e := NewEngine(DefaultConfig())
	if _, err := e.Offload(-1, 0, 0, nil); err == nil {
		t.Error("negative inBytes accepted")
	}
	if _, err := e.Offload(0, -1, 0, nil); err == nil {
		t.Error("negative outBytes accepted")
	}
	if _, err := e.Offload(0, 0, -vclock.Nanosecond, nil); err == nil {
		t.Error("negative kernel time accepted")
	}
}

// The Figure 26/27 relationship: many small offloads cost more overhead
// than one big offload moving the same total data.
func TestGranularityTradeoff(t *testing.T) {
	const totalBytes = 64 << 20
	const pieces = 256

	fine := NewEngine(DefaultConfig())
	for i := 0; i < pieces; i++ {
		if _, err := fine.Offload(totalBytes/pieces, totalBytes/pieces, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	coarse := NewEngine(DefaultConfig())
	if _, err := coarse.Offload(totalBytes, totalBytes, 0, nil); err != nil {
		t.Fatal(err)
	}
	if fine.Report().Overhead() <= coarse.Report().Overhead() {
		t.Fatalf("fine-grained overhead (%v) must exceed coarse (%v)",
			fine.Report().Overhead(), coarse.Report().Overhead())
	}
	if fine.Report().BytesIn != coarse.Report().BytesIn {
		t.Fatal("test moved different data volumes")
	}
}

func TestReportString(t *testing.T) {
	e := NewEngine(DefaultConfig())
	if _, err := e.Offload(10, 20, 0, nil); err != nil {
		t.Fatal(err)
	}
	s := e.Report().String()
	if !strings.Contains(s, "offloads=1") || !strings.Contains(s, "in=10B") {
		t.Fatalf("Report.String = %q", s)
	}
}
