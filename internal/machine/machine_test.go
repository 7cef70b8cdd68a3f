package machine

import (
	"math"
	"testing"
)

func almost(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// The processor models must reproduce the derived quantities the paper's
// Table 1 reports.
func TestSandyBridgeTable1(t *testing.T) {
	p := SandyBridge()
	if got := p.PeakGflopsPerCore(); !almost(got, 20.8, 1e-9) {
		t.Errorf("SB per-core peak = %v, want 20.8", got)
	}
	if got := p.PeakGflops(); !almost(got, 166.4, 1e-9) {
		t.Errorf("SB socket peak = %v, want 166.4", got)
	}
	if p.Cores != 8 || p.ThreadsPerCore != 2 || p.SIMDWidthBits != 256 {
		t.Errorf("SB geometry wrong: %+v", p)
	}
	if p.InOrder {
		t.Error("Sandy Bridge modeled as in-order")
	}
	if p.MT != HyperThreading {
		t.Errorf("SB multithreading = %v", p.MT)
	}
	if l3 := p.Caches[len(p.Caches)-1]; l3.Name != "L3" || l3.SizeBytes != 20<<20 || !l3.Shared {
		t.Errorf("SB L3 wrong: %+v", l3)
	}
}

func TestXeonPhiTable1(t *testing.T) {
	p := XeonPhi5110P()
	if got := p.PeakGflopsPerCore(); !almost(got, 16.8, 1e-9) {
		t.Errorf("Phi per-core peak = %v, want 16.8", got)
	}
	if got := p.PeakGflops(); !almost(got, 1008, 1e-9) {
		t.Errorf("Phi peak = %v, want 1008", got)
	}
	if p.Cores != 60 || p.ThreadsPerCore != 4 || p.SIMDWidthBits != 512 {
		t.Errorf("Phi geometry wrong: %+v", p)
	}
	if !p.InOrder {
		t.Error("Phi modeled as out-of-order")
	}
	if p.UsableCores() != 59 {
		t.Errorf("Phi usable cores = %d, want 59", p.UsableCores())
	}
	if p.MaxThreads() != 240 {
		t.Errorf("Phi max threads = %d, want 240", p.MaxThreads())
	}
	if len(p.Caches) != 2 {
		t.Errorf("Phi has %d cache levels, want L1 and L2 only", len(p.Caches))
	}
}

// Section 6.2: total cache per core is 544 KB on the Phi vs 2.788 MB on the
// host, a factor of 5.1. Per core means private levels in full and shared
// levels divided by the core count, from the Caches the memory simulator
// builds its hierarchies from.
func TestCachePerCoreRatio(t *testing.T) {
	perCore := func(p ProcessorSpec) int {
		total := 0
		for _, c := range p.Caches {
			if c.Shared {
				total += c.SizeBytes / p.Cores
			} else {
				total += c.SizeBytes
			}
		}
		return total
	}
	sb, phi := perCore(SandyBridge()), perCore(XeonPhi5110P())
	if phi != 544<<10 {
		t.Errorf("Phi cache/core = %d, want %d", phi, 544<<10)
	}
	if wantSB := 32<<10 + 256<<10 + (20<<20)/8; sb != wantSB {
		t.Errorf("SB cache/core = %d, want %d", sb, wantSB)
	}
	// The paper quotes 5.1 using 2.5 MB = 2500 KB; with binary MB the exact
	// ratio is 5.24.
	ratio := float64(sb) / float64(phi)
	if !almost(ratio, 5.1, 0.03) {
		t.Errorf("cache/core ratio = %v, want ~5.1", ratio)
	}
}

// Section 2: system peak 301.4 Tflop/s = 42.6 (host) + 258.8 (Phi);
// 2048 host cores and 15360 Phi cores; 6 TB total memory.
func TestSystemTotals(t *testing.T) {
	s := NewSystem()
	host, phi, total := s.PeakTflops()
	if !almost(host, 42.6, 0.01) {
		t.Errorf("host peak = %v Tflop/s, want ~42.6", host)
	}
	if !almost(phi, 258.0, 0.01) {
		t.Errorf("phi peak = %v Tflop/s, want ~258", phi)
	}
	if !almost(total, 301.4, 0.01) {
		t.Errorf("total peak = %v Tflop/s, want ~301.4", total)
	}
	if got := s.TotalHostCores(); got != 2048 {
		t.Errorf("host cores = %d, want 2048", got)
	}
	if got := s.TotalPhiCores(); got != 15360 {
		t.Errorf("phi cores = %d, want 15360", got)
	}
	if got := s.Nodes * s.Node.MemGB(); got != 6144 {
		t.Errorf("total memory = %d GB, want 6144", got)
	}
}

func TestNodeBasics(t *testing.T) {
	n := NewNode()
	if n.HostCores() != 16 {
		t.Errorf("host cores/node = %d, want 16", n.HostCores())
	}
	if !almost(n.HostPeakGflops(), 332.8, 1e-9) {
		t.Errorf("host peak/node = %v, want 332.8", n.HostPeakGflops())
	}
	if n.MemGB() != 48 {
		t.Errorf("node memory = %d GB, want 48", n.MemGB())
	}
}

func TestDeviceString(t *testing.T) {
	if Host.String() != "host" || Phi0.String() != "Phi0" || Phi1.String() != "Phi1" {
		t.Error("Device.String wrong")
	}
	if Host.IsPhi() || !Phi0.IsPhi() || !Phi1.IsPhi() {
		t.Error("IsPhi wrong")
	}
}

func TestHostPartition(t *testing.T) {
	n := NewNode()
	p := HostPartition(n, 1)
	if p.Threads() != 16 || p.Device != Host {
		t.Errorf("host partition = %+v", p)
	}
	p2 := HostPartition(n, 2)
	if p2.Threads() != 32 {
		t.Errorf("HT host partition threads = %d, want 32", p2.Threads())
	}
	// Clamping.
	if HostPartition(n, 0).ThreadsPerCore != 1 || HostPartition(n, 9).ThreadsPerCore != 2 {
		t.Error("threadsPerCore clamping wrong")
	}
	p3 := HostCoresPartition(n, 4, 1)
	if p3.Cores != 4 || p3.Threads() != 4 {
		t.Errorf("HostCoresPartition(4,1) = %+v", p3)
	}
}

// The paper's thread placements: 59/118/177/236 threads use 59 cores at
// 1..4 threads per core; 60/120/180/240 spill onto the OS core (Fig 24).
func TestPhiThreadsPartition(t *testing.T) {
	n := NewNode()
	cases := []struct {
		threads, cores, tpc int
		osCore              bool
	}{
		{59, 59, 1, false},
		{60, 60, 1, true},
		{118, 59, 2, false},
		{120, 60, 2, true},
		{177, 59, 3, false},
		{180, 60, 3, true},
		{236, 59, 4, false},
		{240, 60, 4, true},
		{1, 1, 1, false},
		{1000, 60, 4, true}, // clamped to 240
	}
	for _, c := range cases {
		p := PhiThreadsPartition(n, Phi0, c.threads)
		if p.Cores != c.cores || p.ThreadsPerCore != c.tpc || p.UsesOSCore != c.osCore {
			t.Errorf("PhiThreadsPartition(%d) = cores %d tpc %d os %v, want %d %d %v",
				c.threads, p.Cores, p.ThreadsPerCore, p.UsesOSCore, c.cores, c.tpc, c.osCore)
		}
	}
}

func TestPhiPartitionPanicsOnHost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PhiPartition(Host) did not panic")
		}
	}()
	PhiPartition(NewNode(), Host, 1, 1)
}

func TestPartitionString(t *testing.T) {
	n := NewNode()
	p := PhiPartition(n, Phi0, 59, 3)
	if got := p.String(); got != "Phi0[59c x 3t]" {
		t.Errorf("Partition.String() = %q", got)
	}
}

func TestLinkSpecs(t *testing.T) {
	if q := QPI(); q.RawGTs != 8.0 || q.PeakGBs != 32.0 {
		t.Errorf("QPI = %+v", q)
	}
	if p := PCIeGen2x16(); p.Lanes != 16 || p.RawGTs != 5.0 {
		t.Errorf("PCIe gen2 = %+v", p)
	}
	if ib := FDRInfiniBand(); ib.Lanes != 4 {
		t.Errorf("IB = %+v", ib)
	}
}
