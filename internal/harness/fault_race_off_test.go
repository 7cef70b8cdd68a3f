//go:build !race

package harness

import (
	"os"
	"testing"

	"maia/internal/simfault"
)

// An explicitly-empty fault plan reproduces every golden snapshot bit
// for bit: threading &simfault.Plan{} through the whole suite is exactly
// the healthy machine. Full-mode (it re-renders all experiments), so it
// is skipped under -race and -short; TestGoldenSnapshots covers the nil
// plan on every build.
func TestEmptyFaultPlanGoldensUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode golden re-render")
	}
	env := DefaultEnv()
	env.Faults = &simfault.Plan{}
	if err := VerifyGolden(env, Paper().All(), os.DirFS("testdata/golden")); err != nil {
		t.Fatal(err)
	}
}
