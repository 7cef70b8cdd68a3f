// Command npbrun executes the REAL NPB kernel implementations (not the
// performance models) at laptop-runnable scales and verifies their
// results, the way the reference suite's verification stage does:
//
//	npbrun -bench ep -class S      # reproduces the official EP.S sums
//	npbrun -bench mg               # V-cycle residual history
//	npbrun -bench all              # whole suite, small sizes
//
// The grid-based kernels run reduced grids regardless of class (the
// class only scales EP, CG and IS here); paper-scale performance is the
// job of cmd/maiabench, which prices class C through the execution
// model.
//
// npbrun shares maiabench's flag surface for tracing (-trace,
// -trace-summary) and fault injection (-faults, -seed): a fault plan
// derates the simulated OpenMP runtime's virtual time (visible in the
// trace output), while the kernels' numerical results — and their
// verification — are unaffected by design.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"maia/internal/harness"
	"maia/internal/machine"
	"maia/internal/npb"
	"maia/internal/simomp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "npbrun:", err)
		os.Exit(1)
	}
}

// benchNames lists the kernels in suite order.
var benchNames = []string{"ep", "cg", "mg", "ft", "is", "bt", "lu", "sp"}

// run executes the selected kernels and writes their verification
// transcripts to w; it returns an error if any kernel fails to verify,
// or if the arguments are invalid.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("npbrun", flag.ContinueOnError)
	bench := fs.String("bench", "all", "ep|cg|mg|ft|is|bt|lu|sp|all")
	class := fs.String("class", "S", "problem class for EP/CG/IS (S or W)")
	threads := fs.Int("threads", 8, "simulated OpenMP team width")
	mpiRanks := fs.Int("mpi", 0, "also run every distributed-memory kernel with this many MPI ranks")
	jf := &harness.JobFlags{}
	jf.RegisterTrace(fs)
	jf.RegisterFaults(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, tracer, err := jf.Env()
	if err != nil {
		return err
	}
	tracer.SetProcess("npbrun")

	kernels := map[string]func() error{}
	rt := simomp.New(machine.HostCoresPartition(env.Node, *threads, 1),
		simomp.WithTracer(tracer, fmt.Sprintf("omp:host%d", *threads)),
		simomp.WithFaultPlan(env.Faults))
	team := simomp.NewTeam(rt)
	kernels["ep"] = func() error { return runEP(w, *class, team, *mpiRanks) }
	kernels["cg"] = func() error { return runCG(w, *class, team, *mpiRanks) }
	kernels["mg"] = func() error { return runMG(w, team, *mpiRanks) }
	kernels["ft"] = func() error { return runFT(w, team, *mpiRanks) }
	kernels["is"] = func() error { return runIS(w, *class, team, *mpiRanks) }
	kernels["bt"] = func() error { return runBT(w, team, *mpiRanks) }
	kernels["lu"] = func() error { return runLU(w, team, *mpiRanks) }
	kernels["sp"] = func() error { return runSP(w, team, *mpiRanks) }
	if *bench != "all" {
		if _, ok := kernels[*bench]; !ok {
			return fmt.Errorf("unknown benchmark %q (want one of %s, or all)",
				*bench, strings.Join(benchNames, "|"))
		}
	}

	failed := 0
	for _, name := range benchNames {
		if *bench != "all" && *bench != name {
			continue
		}
		fmt.Fprintf(w, "--- %s ---\n", strings.ToUpper(name))
		if err := kernels[name](); err != nil {
			fmt.Fprintf(w, "FAILED: %v\n", err)
			failed++
			continue
		}
		fmt.Fprintln(w, "VERIFIED")
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) failed verification", failed)
	}
	return jf.WriteTrace(tracer, w)
}

func runEP(w io.Writer, class string, team *simomp.Team, mpiRanks int) error {
	pairs := int64(1) << 24
	if class == "W" {
		pairs = 1 << 25
	}
	res, err := npb.RunEP(pairs, team)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pairs=2^%d sx=%.12e sy=%.12e accepted=%d\n",
		log2i(pairs), res.Sx, res.Sy, res.Accepted)
	if mpiRanks > 0 {
		mres, err := npb.RunEPMPI(pairs, mpiRanks)
		if err != nil {
			return err
		}
		if mres.Accepted != res.Accepted || math.Abs(mres.Sx-res.Sx) > 1e-9 {
			return fmt.Errorf("MPI EP diverges from serial")
		}
		fmt.Fprintf(w, "MPI(%d ranks): sums match serial\n", mpiRanks)
	}
	if class == "S" {
		// The official NPB 3.3 class S verification values.
		const wantSx, wantSy = -3.247834652034740e3, -6.958407078382297e3
		if math.Abs(res.Sx-wantSx) > 1e-8 || math.Abs(res.Sy-wantSy) > 1e-8 {
			return fmt.Errorf("sums do not match the NPB reference")
		}
		if res.Accepted != 13176389 {
			return fmt.Errorf("accepted count %d != reference 13176389", res.Accepted)
		}
	}
	return nil
}

func runCG(w io.Writer, class string, team *simomp.Team, mpiRanks int) error {
	n, nz, iters, shift := 1400, 7, 15, 10.0
	if class == "W" {
		n, nz, shift = 7000, 8, 12.0
	}
	m := npb.MakeCGMatrix(n, nz)
	res, err := npb.RunCG(m, shift, iters, team)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "n=%d nnz=%d zeta=%.10f residual=%.3e\n", n, m.NNZ(), res.Zeta, res.Residual)
	if res.Residual > 1e-6 {
		return fmt.Errorf("inner CG residual %v too large", res.Residual)
	}
	h := res.ZetaHistory
	if d := math.Abs(h[len(h)-1] - h[len(h)-2]); d > 1e-2*math.Abs(res.Zeta) {
		return fmt.Errorf("zeta not converged (last delta %v)", d)
	}
	if mpiRanks > 0 {
		mres, err := npb.RunCGMPI(m, shift, iters, mpiRanks)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "MPI(%d ranks): zeta=%.10f\n", mpiRanks, mres.Zeta)
		if math.Abs(mres.Zeta-res.Zeta) > 1e-9*math.Abs(res.Zeta) {
			return fmt.Errorf("MPI zeta diverges from serial")
		}
	}
	return nil
}

func runMG(w io.Writer, team *simomp.Team, mpiRanks int) error {
	res, err := npb.RunMG(32, 4, team, false)
	if err != nil {
		return err
	}
	if mpiRanks > 0 {
		mres, err := npb.RunMGMPI(32, 4, mpiRanks)
		if err != nil {
			return err
		}
		for c := range res.ResidualNorms {
			if math.Abs(mres.ResidualNorms[c]-res.ResidualNorms[c]) > 1e-10*res.ResidualNorms[c] {
				return fmt.Errorf("MPI residual %d diverges from serial", c)
			}
		}
		fmt.Fprintf(w, "MPI(%d ranks): residual history matches serial\n", mpiRanks)
	}
	fmt.Fprintf(w, "32^3 grid, residuals per V-cycle: %.3e", res.ResidualNorms[0])
	for _, r := range res.ResidualNorms[1:] {
		fmt.Fprintf(w, " -> %.3e", r)
	}
	fmt.Fprintln(w)
	last := res.ResidualNorms[len(res.ResidualNorms)-1]
	if last >= res.ResidualNorms[0]/4 {
		return fmt.Errorf("V-cycles not contracting")
	}
	return nil
}

func runFT(w io.Writer, team *simomp.Team, mpiRanks int) error {
	res, err := npb.RunFT(32, 32, 16, 4, team)
	if err != nil {
		return err
	}
	if mpiRanks > 0 {
		mres, err := npb.RunFTMPI(32, 32, 16, 4, mpiRanks)
		if err != nil {
			return err
		}
		for s := range res.Checksums {
			d := res.Checksums[s] - mres.Checksums[s]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				return fmt.Errorf("MPI checksum %d diverges from serial", s)
			}
		}
		fmt.Fprintf(w, "MPI(%d ranks): checksums match serial\n", mpiRanks)
	}
	fmt.Fprintf(w, "32x32x16 grid, checksums:")
	for _, c := range res.Checksums {
		fmt.Fprintf(w, " (%.4f,%.4f)", real(c), imag(c))
	}
	fmt.Fprintln(w)
	for i := 1; i < len(res.Energies); i++ {
		if res.Energies[i] > res.Energies[i-1]*(1+1e-12) {
			return fmt.Errorf("diffusion energy grew at step %d", i)
		}
	}
	g := npb.NewFTGrid(16, 16, 16)
	for i := range g.V {
		g.V[i] = complex(float64(i%17)*0.1, float64(i%5)*0.2)
	}
	if e := npb.FTRoundTripError(g, team); e > 1e-10 {
		return fmt.Errorf("FFT round-trip error %v", e)
	}
	return nil
}

func runIS(w io.Writer, class string, team *simomp.Team, mpiRanks int) error {
	n, maxKey := int64(1)<<16, int64(1)<<11
	if class == "W" {
		n, maxKey = 1<<20, 1<<16
	}
	keys := npb.ISKeys(n, maxKey)
	res, err := npb.RunIS(keys, maxKey, 10, team)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "keys=2^%d maxKey=2^%d iterations=%d\n", log2i(n), log2i(maxKey), res.Iterations)
	if err := npb.ISVerify(keys, maxKey, 10, res); err != nil {
		return err
	}
	if mpiRanks > 0 {
		mres, err := npb.RunISMPI(n, maxKey, 10, mpiRanks)
		if err != nil {
			return err
		}
		for i := range res.Sorted {
			if mres.Sorted[i] != res.Sorted[i] {
				return fmt.Errorf("MPI sort diverges from serial at %d", i)
			}
		}
		fmt.Fprintf(w, "MPI(%d ranks): sorted output matches serial\n", mpiRanks)
	}
	return nil
}

func runBT(w io.Writer, team *simomp.Team, mpiRanks int) error {
	norms, err := npb.RunBT(12, 20, team)
	if err != nil {
		return err
	}
	if err := checkSettling(w, "BT", norms); err != nil {
		return err
	}
	return checkMPINorms(w, "BT", norms, mpiRanks, func(ranks int) ([]float64, error) {
		return npb.RunBTMPI(12, 20, ranks)
	})
}

func runLU(w io.Writer, team *simomp.Team, mpiRanks int) error {
	res, err := npb.RunLU(10, 8, team)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "10^3 grid, SSOR residuals: %.3e -> %.3e over %d sweeps\n",
		res[0], res[len(res)-1], len(res))
	if res[len(res)-1] >= res[0]/10 {
		return fmt.Errorf("SSOR not converging")
	}
	return checkMPINorms(w, "LU", res, mpiRanks, func(ranks int) ([]float64, error) {
		return npb.RunLUMPI(10, 8, ranks)
	})
}

func runSP(w io.Writer, team *simomp.Team, mpiRanks int) error {
	norms, err := npb.RunSP(12, 20, team)
	if err != nil {
		return err
	}
	if err := checkSettling(w, "SP", norms); err != nil {
		return err
	}
	return checkMPINorms(w, "SP", norms, mpiRanks, func(ranks int) ([]float64, error) {
		return npb.RunSPMPI(12, 20, ranks)
	})
}

// checkMPINorms runs the distributed variant and compares its norm
// history with the serial run.
func checkMPINorms(w io.Writer, name string, serial []float64, ranks int, f func(int) ([]float64, error)) error {
	if ranks <= 0 {
		return nil
	}
	got, err := f(ranks)
	if err != nil {
		return err
	}
	for s := range serial {
		if math.Abs(got[s]-serial[s]) > 1e-12*math.Max(serial[s], 1e-30) {
			return fmt.Errorf("%s MPI norm %d diverges from serial", name, s)
		}
	}
	fmt.Fprintf(w, "MPI(%d ranks): norm history matches serial\n", ranks)
	return nil
}

func checkSettling(w io.Writer, name string, norms []float64) error {
	fmt.Fprintf(w, "%s: 12^3 grid, %d ADI steps, final norm %.6f\n", name, len(norms), norms[len(norms)-1])
	early := math.Abs(norms[1] - norms[0])
	late := math.Abs(norms[len(norms)-1] - norms[len(norms)-2])
	if late > early {
		return fmt.Errorf("%s not approaching steady state", name)
	}
	return nil
}

func log2i(n int64) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
