package simfleet

import (
	"fmt"
	"testing"

	"maia/internal/vclock"
)

// BenchmarkRun times one fleet run per policy at a mid-size and the
// maximum fleet, remediation on under the erratic MTBF profile (every
// event kind live), so per-policy dispatch cost shows up without a
// harness render. Run with:
//
//	go test ./internal/simfleet -run '^$' -bench Run -benchmem
func BenchmarkRun(b *testing.B) {
	tab, err := testTable()
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range PolicyNames() {
		for _, nodes := range []int{64, MaxNodes} {
			cfg := Config{
				Nodes:     nodes,
				Duration:  600 * vclock.Second,
				Profile:   "erratic",
				Scheduler: policy,
				Remediate: true,
				Prices:    tab,
			}
			b.Run(fmt.Sprintf("%s/%d", policy, nodes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
