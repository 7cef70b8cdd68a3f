package pcie

import (
	"math"
	"testing"
)

func within(t *testing.T, what string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (±%v%%)", what, got, want, relTol*100)
	}
}

// Figure 7: MPI latency per path, pre- and post-update.
func TestFig7Latencies(t *testing.T) {
	pre, post := NewStack(PreUpdate), NewStack(PostUpdate)
	within(t, "pre h-p0", pre.Latency(HostPhi0).Microseconds(), 3.3, 1e-9)
	within(t, "pre h-p1", pre.Latency(HostPhi1).Microseconds(), 4.6, 1e-9)
	within(t, "pre p0-p1", pre.Latency(Phi0Phi1).Microseconds(), 6.3, 1e-9)
	within(t, "post h-p0", post.Latency(HostPhi0).Microseconds(), 3.3, 1e-9)
	within(t, "post h-p1", post.Latency(HostPhi1).Microseconds(), 4.1, 1e-9)
	within(t, "post p0-p1", post.Latency(Phi0Phi1).Microseconds(), 6.6, 1e-9)
}

// Figure 8: 4 MB bandwidths. Pre: 1.6 GB/s, 455 MB/s, 444 MB/s.
// Post: 6 GB/s, 6 GB/s, 899 MB/s.
func TestFig8Bandwidth4MB(t *testing.T) {
	const m = 4 << 20
	pre, post := NewStack(PreUpdate), NewStack(PostUpdate)
	within(t, "pre h-p0", pre.Bandwidth(HostPhi0, m), 1.6, 0.02)
	within(t, "pre h-p1", pre.Bandwidth(HostPhi1, m), 0.455, 0.02)
	within(t, "pre p0-p1", pre.Bandwidth(Phi0Phi1, m), 0.444, 0.02)
	within(t, "post h-p0", post.Bandwidth(HostPhi0, m), 6.0, 0.02)
	within(t, "post h-p1", post.Bandwidth(HostPhi1, m), 6.0, 0.02)
	within(t, "post p0-p1", post.Bandwidth(Phi0Phi1, m), 0.899, 0.02)
}

// The pre-update asymmetry: host-Phi0 is ~3.5x host-Phi1; post-update
// removes it entirely.
func TestUpdateRemovesAsymmetry(t *testing.T) {
	const m = 4 << 20
	pre, post := NewStack(PreUpdate), NewStack(PostUpdate)
	preRatio := pre.Bandwidth(HostPhi0, m) / pre.Bandwidth(HostPhi1, m)
	if preRatio < 3 || preRatio > 4 {
		t.Errorf("pre-update asymmetry = %v, want ~3.5", preRatio)
	}
	postRatio := post.Bandwidth(HostPhi0, m) / post.Bandwidth(HostPhi1, m)
	if math.Abs(postRatio-1) > 0.05 {
		t.Errorf("post-update asymmetry = %v, want ~1", postRatio)
	}
}

// Figure 9: post/pre gain. Small messages gain 1–1.5x (host-Phi0) and
// 1–1.3x (host-Phi1); at/above 256 KB the SCIF switch lifts gains to
// 2–3.8x and 7–13x respectively; Phi0-Phi1 gains 1.8–2x.
func TestFig9Gains(t *testing.T) {
	pre, post := NewStack(PreUpdate), NewStack(PostUpdate)
	gain := func(p Path, bytes int) float64 {
		return post.Bandwidth(p, bytes) / pre.Bandwidth(p, bytes)
	}
	for _, bytes := range []int{1, 64, 1024, 8192} {
		g0 := gain(HostPhi0, bytes)
		if g0 < 0.95 || g0 > 1.5 {
			t.Errorf("h-p0 gain at %d B = %v, want 1–1.5", bytes, g0)
		}
		g1 := gain(HostPhi1, bytes)
		if g1 < 0.95 || g1 > 1.5 {
			t.Errorf("h-p1 gain at %d B = %v, want 1–1.3", bytes, g1)
		}
	}
	g := gain(HostPhi0, 4<<20)
	if g < 2 || g > 3.9 {
		t.Errorf("h-p0 gain at 4 MB = %v, want 2–3.8", g)
	}
	g = gain(HostPhi1, 4<<20)
	if g < 7 || g > 13.5 {
		t.Errorf("h-p1 gain at 4 MB = %v, want 7–13", g)
	}
	g = gain(Phi0Phi1, 4<<20)
	if g < 1.8 || g > 2.1 {
		t.Errorf("p0-p1 gain at 4 MB = %v, want ~2", g)
	}
}

// Routing: the three post-update states of Section 5.
func TestRouteStates(t *testing.T) {
	post := NewStack(PostUpdate)
	cases := []struct {
		bytes int
		prov  Provider
		proto Protocol
	}{
		{1, CCLDirect, Eager},
		{8192, CCLDirect, Eager},
		{8193, CCLDirect, RendezvousDirect},
		{262144, CCLDirect, RendezvousDirect},
		{262145, SCIF, RendezvousDirect},
		{4 << 20, SCIF, RendezvousDirect},
	}
	for _, c := range cases {
		prov, proto := post.Route(c.bytes)
		if prov != c.prov || proto != c.proto {
			t.Errorf("Route(%d) = %v/%v, want %v/%v", c.bytes, prov, proto, c.prov, c.proto)
		}
	}
	// Pre-update: CCL Direct always.
	pre := NewStack(PreUpdate)
	for _, bytes := range []int{1, 8193, 4 << 20} {
		if prov, _ := pre.Route(bytes); prov != CCLDirect {
			t.Errorf("pre-update Route(%d) = %v, want CCL", bytes, prov)
		}
	}
}

func TestBandwidthMonotoneInSizePerState(t *testing.T) {
	// Within one protocol/provider state, effective bandwidth grows with
	// message size (latency amortizes).
	post := NewStack(PostUpdate)
	for _, p := range Paths() {
		prev := 0.0
		for bytes := 512 << 10; bytes <= 64<<20; bytes *= 2 {
			bw := post.Bandwidth(p, bytes)
			if bw < prev {
				t.Errorf("%v: bandwidth fell from %v to %v at %d B", p, prev, bw, bytes)
			}
			prev = bw
		}
	}
}

func TestTransferTimeZeroBytes(t *testing.T) {
	s := NewStack(PostUpdate)
	if got := s.TransferTime(HostPhi0, 0); got != s.Latency(HostPhi0) {
		t.Errorf("zero-byte transfer = %v, want pure latency", got)
	}
	if s.Bandwidth(HostPhi0, 0) != 0 {
		t.Error("zero-byte bandwidth not 0")
	}
}

func TestSetDAPLConfigAblation(t *testing.T) {
	// Ablation: disabling the SCIF switch (threshold = infinity) must
	// erase the large-message gain.
	post := NewStack(PostUpdate)
	cfg := DefaultDAPLConfig()
	cfg.ProviderSwitchBytes = 1 << 30
	post.SetDAPLConfig(cfg)
	if bw := post.Bandwidth(HostPhi0, 4<<20); bw > 2.3 {
		t.Errorf("SCIF-disabled 4MB bandwidth = %v GB/s, want CCL-limited ~2.2", bw)
	}
}

func TestStringers(t *testing.T) {
	if HostPhi0.String() != "host-Phi0" || Phi0Phi1.String() != "Phi0-Phi1" {
		t.Error("Path.String")
	}
	if CCLDirect.String() != "ofa-v2-mlx4_0-1" || SCIF.String() != "ofa-v2-scif0" {
		t.Error("Provider.String")
	}
	if Eager.String() != "eager" || RendezvousDirect.String() != "rendezvous direct-copy" {
		t.Error("Protocol.String")
	}
	if PreUpdate.String() != "pre-update" || PostUpdate.String() != "post-update" {
		t.Error("Software.String")
	}
}

// Figure 18 / Section 6.7: framing efficiency 76% at 64 B and 86% at
// 128 B payloads; sustained ~6.4 GB/s; Phi1 ~3% lower; 64 KB dip.
func TestOffloadDMA(t *testing.T) {
	within(t, "eff 64B", PacketEfficiency(64), 0.76, 0.01)
	within(t, "eff 128B", PacketEfficiency(128), 0.86, 0.01)
	if PacketEfficiency(0) != 0 {
		t.Error("PacketEfficiency(0) != 0")
	}

	cfg := DefaultDMAConfig()
	big := 64 << 20
	bw0 := OffloadBandwidth(cfg, HostPhi0, big)
	within(t, "offload h-p0 large", bw0, 6.4, 0.02)
	bw1 := OffloadBandwidth(cfg, HostPhi1, big)
	within(t, "phi1 derate", bw1/bw0, 0.97, 0.005)

	// The 64 KB dip: bandwidth at 64 KB is below both 32 KB and 128 KB.
	dip := OffloadBandwidth(cfg, HostPhi0, 64<<10)
	if dip >= OffloadBandwidth(cfg, HostPhi0, 32<<10) ||
		dip >= OffloadBandwidth(cfg, HostPhi0, 128<<10) {
		t.Errorf("no dip at 64 KB: %v", dip)
	}

	// Small transfers are setup-dominated.
	if small := OffloadBandwidth(cfg, HostPhi0, 64); small > 0.05 {
		t.Errorf("64 B offload bandwidth = %v GB/s, want ~latency-bound", small)
	}
	if OffloadBandwidth(cfg, HostPhi0, 0) != 0 {
		t.Error("zero-byte offload bandwidth not 0")
	}
}
