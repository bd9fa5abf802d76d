package cubeftl

import (
	"fmt"
	"io"

	"cubeftl/internal/workload"
)

// RecordTrace writes n requests of a named workload (sized to
// logicalPages) to w as an MSR-Cambridge CSV trace, the grammar
// ReplayTrace reads. A record's timestamp advances only at the
// workload's burst pauses, so a replay offers each burst at once.
func RecordTrace(w io.Writer, workloadName string, logicalPages, n int, seed uint64) error {
	prof, ok := workload.ByName(workloadName)
	if !ok {
		return fmt.Errorf("cubeftl: unknown workload %q (have %v)", workloadName, Workloads())
	}
	return workload.WriteMSR(w, workload.NewStream(prof, logicalPages, seed), n)
}
