package memsim

import (
	"testing"

	"maia/internal/machine"
)

// Figure 6, host: read bandwidths 12.6/12.3/11.6/7.5 GB/s and write
// bandwidths 10.4/9.5/8.6/7.2 GB/s across the four regions.
func TestHostBandwidthPlateaus(t *testing.T) {
	proc := machine.SandyBridge()
	h := MustHierarchy(proc)
	cases := []struct {
		ws          int
		read, write float64
	}{
		{16 << 10, 12.6, 10.4},
		{128 << 10, 12.3, 9.5},
		{4 << 20, 11.6, 8.6},
		{64 << 20, 7.5, 7.2},
	}
	for _, c := range cases {
		p := StreamBandwidth(h, proc, c.ws)
		within(t, "host read", p.ReadGBs, c.read, 0.05)
		within(t, "host write", p.WriteGBs, c.write, 0.05)
	}
}

// Figure 6, Phi: read 1680/971/504 MB/s, write 1538/962/263 MB/s per core.
func TestPhiBandwidthPlateaus(t *testing.T) {
	proc := machine.XeonPhi5110P()
	h := MustHierarchy(proc)
	cases := []struct {
		ws          int
		read, write float64
	}{
		{16 << 10, 1.680, 1.538},
		{256 << 10, 0.971, 0.962},
		{8 << 20, 0.504, 0.263},
	}
	for _, c := range cases {
		p := StreamBandwidth(h, proc, c.ws)
		within(t, "phi read", p.ReadGBs, c.read, 0.05)
		within(t, "phi write", p.WriteGBs, c.write, 0.05)
	}
}

// Reads are never slower than writes at the same level, and per-core DRAM
// bandwidth on the Phi is far below the host's (the paper's central
// explanation for OVERFLOW's Phi performance).
func TestBandwidthOrdering(t *testing.T) {
	curve := BandwidthCurve(machine.XeonPhi5110P(), 4<<10, 8<<20)
	for _, p := range curve {
		if p.WriteGBs > p.ReadGBs*1.001 {
			t.Errorf("ws %d: write %v > read %v", p.WorkingSetBytes, p.WriteGBs, p.ReadGBs)
		}
	}
	host := StreamBandwidth(MustHierarchy(machine.SandyBridge()), machine.SandyBridge(), 64<<20)
	phi := StreamBandwidth(MustHierarchy(machine.XeonPhi5110P()), machine.XeonPhi5110P(), 64<<20)
	if host.ReadGBs/phi.ReadGBs < 10 {
		t.Errorf("host/phi per-core DRAM read ratio = %v, want ~15",
			host.ReadGBs/phi.ReadGBs)
	}
}

// Figure 4: the Phi reaches 180 GB/s at 59 and 118 threads, then drops to
// ~140 GB/s beyond 128 threads (open-bank limit).
func TestStreamTriadPhi(t *testing.T) {
	n := machine.NewNode()
	cfg := DefaultStreamConfig()
	pts := StreamCurve(n, machine.Phi0, []int{1, 30, 59, 118, 177, 236}, cfg)
	get := func(threads int) float64 {
		for _, p := range pts {
			if p.Threads == threads {
				return p.TriadGBs
			}
		}
		t.Fatalf("no point for %d threads", threads)
		return 0
	}
	within(t, "phi triad 59t", get(59), 180, 0.02)
	within(t, "phi triad 118t", get(118), 180, 0.02)
	within(t, "phi triad 177t", get(177), 140, 0.03)
	within(t, "phi triad 236t", get(236), 140, 0.03)
	if get(30) >= get(59) {
		t.Errorf("no ramp: 30t %v >= 59t %v", get(30), get(59))
	}
	if get(1) > 5 {
		t.Errorf("single thread triad = %v GB/s, want a few GB/s", get(1))
	}
}

// Ablation: without the bank limit there is no drop — the curve stays at
// the sustained plateau.
func TestStreamTriadBankAblation(t *testing.T) {
	n := machine.NewNode()
	cfg := StreamConfig{BankLimit: false}
	pts := StreamCurve(n, machine.Phi0, []int{118, 177, 236}, cfg)
	for _, p := range pts {
		within(t, "ablated triad", p.TriadGBs, 180, 0.02)
	}
}

// Host triad saturates at the two-socket sustained bandwidth.
func TestStreamTriadHost(t *testing.T) {
	n := machine.NewNode()
	pts := StreamCurve(n, machine.Host, []int{1, 8, 16}, DefaultStreamConfig())
	if pts[2].TriadGBs <= pts[0].TriadGBs {
		t.Fatal("host triad does not scale with threads")
	}
	within(t, "host triad 16t", pts[2].TriadGBs, 2*machine.SandyBridge().MemSustainedGBs, 0.02)
	// The Phi's aggregate STREAM advantage over the host is ~2.4x.
	phi := StreamCurve(n, machine.Phi0, []int{59}, DefaultStreamConfig())
	ratio := phi[0].TriadGBs / pts[2].TriadGBs
	if ratio < 2 || ratio > 3 {
		t.Errorf("phi/host STREAM ratio = %v, want ~2.4", ratio)
	}
}

// The real STREAM kernels must compute correct values.
func TestStreamKernels(t *testing.T) {
	n := 1024
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = 2
	}
	if err := Triad(a, b, c, 3); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != float64(i)+6 {
			t.Fatalf("triad a[%d] = %v", i, a[i])
		}
	}
}

func TestStreamKernelsLengthMismatch(t *testing.T) {
	a, b, c := make([]float64, 4), make([]float64, 5), make([]float64, 4)
	if Triad(a, b, c, 1) == nil {
		t.Fatal("length mismatch not rejected")
	}
}
