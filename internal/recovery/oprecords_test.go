package recovery

import (
	"testing"

	"cubeftl/internal/pool"
)

// The power-cut sweep with every op-record free list capped at one
// record (see ftl's TestOpRecordReuseUnderChaos for why that is the
// harshest setting): records abandoned mid-operation by a cut, records
// recycled across GC, checkpoints and scrubs, and the remounted stack's
// fresh records must still recover every acked write, and the recovered
// state must still be byte-identical from run to run.
func TestPowerCutSweepWithRecycledOpRecords(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	t.Run("sweep", TestPowerCutSweep)
	t.Run("deterministic", TestPowerCutDeterministic)
}
