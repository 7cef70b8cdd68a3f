// distributed runs the genuine distributed-memory implementations of all
// eight NPB kernels over simmpi ranks, verifies each against its serial
// counterpart, and prints the MPInside-style profile of one of them —
// the repository's two layers (real computation, virtual time) in one
// place.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"math"

	"maia/internal/npb"
	"maia/internal/simmpi"
)

func main() {
	const ranks = 4
	fmt.Printf("all eight NPB kernels as real MPI programs on %d ranks:\n\n", ranks)

	ok := func(name string, match bool, detail string) {
		verdict := "MATCHES serial"
		if !match {
			verdict = "DIVERGES"
		}
		fmt.Printf("  %-3s %-15s %s\n", name, verdict, detail)
	}

	// EP: batch split + allreduce.
	epSer, err := npb.RunEP(1<<20, nil)
	if err != nil {
		log.Fatal(err)
	}
	epPar, err := npb.RunEPMPI(1<<20, ranks)
	if err != nil {
		log.Fatal(err)
	}
	ok("EP", epPar.Accepted == epSer.Accepted && math.Abs(epPar.Sx-epSer.Sx) < 1e-9,
		fmt.Sprintf("accepted=%d", epPar.Accepted))

	// CG: row-partitioned matvec.
	m := npb.MakeCGMatrix(600, 6)
	cgSer, err := npb.RunCG(m, 10, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	cgPar, err := npb.RunCGMPI(m, 10, 3, ranks)
	if err != nil {
		log.Fatal(err)
	}
	ok("CG", math.Abs(cgPar.Zeta-cgSer.Zeta) < 1e-9*math.Abs(cgSer.Zeta),
		fmt.Sprintf("zeta=%.8f", cgPar.Zeta))

	// MG: slab halos + coarse gather.
	mgSer, err := npb.RunMG(16, 3, nil, false)
	if err != nil {
		log.Fatal(err)
	}
	mgPar, err := npb.RunMGMPI(16, 3, ranks)
	if err != nil {
		log.Fatal(err)
	}
	mgOK := true
	for c := range mgSer.ResidualNorms {
		if math.Abs(mgPar.ResidualNorms[c]-mgSer.ResidualNorms[c]) > 1e-10*mgSer.ResidualNorms[c] {
			mgOK = false
		}
	}
	ok("MG", mgOK, fmt.Sprintf("final residual=%.3e", mgPar.ResidualNorms[2]))

	// FT: slab decomposition + all-to-all transpose.
	ftSer, err := npb.RunFT(16, 8, 16, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	ftPar, err := npb.RunFTMPI(16, 8, 16, 2, ranks)
	if err != nil {
		log.Fatal(err)
	}
	d := ftSer.Checksums[1] - ftPar.Checksums[1]
	ok("FT", math.Hypot(real(d), imag(d)) < 1e-9,
		fmt.Sprintf("checksum=(%.3f,%.3f)", real(ftPar.Checksums[1]), imag(ftPar.Checksums[1])))

	// IS: bucket exchange.
	keys := npb.ISKeys(1<<12, 1<<8)
	isSer, err := npb.RunIS(keys, 1<<8, 10, nil)
	if err != nil {
		log.Fatal(err)
	}
	_ = isSer
	isPar, err := npb.RunISMPI(1<<12, 1<<8, 10, ranks)
	if err != nil {
		log.Fatal(err)
	}
	isOK := len(isPar.Sorted) == len(isSer.Sorted)
	for i := range isSer.Sorted {
		if isPar.Sorted[i] != isSer.Sorted[i] {
			isOK = false
			break
		}
	}
	ok("IS", isOK, fmt.Sprintf("%d keys sorted", len(isPar.Sorted)))

	// BT / LU / SP: pipelined line solves and wavefronts.
	for _, k := range []struct {
		name   string
		serial func() ([]float64, error)
		mpi    func() ([]float64, error)
	}{
		{"BT", func() ([]float64, error) { return npb.RunBT(10, 3, nil) },
			func() ([]float64, error) { return npb.RunBTMPI(10, 3, ranks) }},
		{"LU", func() ([]float64, error) { return npb.RunLU(8, 3, nil) },
			func() ([]float64, error) { return npb.RunLUMPI(8, 3, ranks) }},
		{"SP", func() ([]float64, error) { return npb.RunSP(12, 3, nil) },
			func() ([]float64, error) { return npb.RunSPMPI(12, 3, ranks) }},
	} {
		ser, err := k.serial()
		if err != nil {
			log.Fatal(err)
		}
		par, err := k.mpi()
		if err != nil {
			log.Fatal(err)
		}
		match := true
		for s := range ser {
			if math.Abs(par[s]-ser[s]) > 1e-12*math.Max(ser[s], 1e-30) {
				match = false
			}
		}
		ok(k.name, match, fmt.Sprintf("final norm=%.6f", par[len(par)-1]))
	}

	// The virtual-time layer: profile one of the runs MPInside-style.
	fmt.Println("\nMPInside-style profile of the CG run (rank 0):")
	w, err := simmpi.NewWorld(simmpi.Config{Ranks: simmpi.HostPlacement(ranks, 1)})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Run(func(r *simmpi.Rank) {
		// Re-run one CG iteration's communication inline for the profile.
		for step := 0; step < 25; step++ {
			r.AllreduceSum(1)
			r.Allgather(make([]byte, 600/ranks*8))
		}
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Print(simmpi.FormatProfile(w.Profiles()[0]))
	fmt.Printf("summary: %v\n", w.Summarize())
}
