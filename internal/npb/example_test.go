package npb_test

import (
	"fmt"

	"maia/internal/npb"
)

// A nil team runs EP serially; the result does not depend on the team.
func ExampleRunEP() {
	res, err := npb.RunEP(1<<20, nil) // a 1/16th-of-class-S slice
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Pairs, res.Accepted)
	// Output: 1048576 823561
}

// Work profiles characterize paper-scale runs for the execution model.
func ExampleProfile() {
	w, err := npb.Profile(npb.MG, npb.ClassC)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %.1f Gflop, OI %.2f flops/byte\n",
		w.Name, w.Flops/1e9, w.Flops/w.Bytes)
	// Output: NPB MG.C: 155.7 Gflop, OI 0.26 flops/byte
}
