package core_test

import (
	"fmt"

	"maia/internal/core"
	"maia/internal/machine"
)

// The execution model prices a characterized workload on any partition.
// A bandwidth-bound streaming kernel (MG's character) is the one case
// where the Phi beats the host.
func ExampleModel_Time() {
	m := core.DefaultModel()
	node := machine.NewNode()
	w := core.Workload{
		Name:             "streaming stencil",
		Flops:            4e11,
		Bytes:            1e12,
		VecFraction:      0.9,
		Stride:           core.Unit,
		Reuse:            0.1,
		ParallelFraction: 0.999,
	}
	host := m.Time(w, machine.HostPartition(node, 1))
	phi := m.Time(w, machine.PhiThreadsPartition(node, machine.Phi0, 177))
	fmt.Println(phi < host)
	// Output: true
}
