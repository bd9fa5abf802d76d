package cubeftl

import (
	"fmt"
	"io"

	"cubeftl/internal/workload"
)

// RecordTrace writes n requests of a named workload (sized to
// logicalPages) to w in the plain-text trace format (see
// internal/workload: "<r|w> <lpn> <pages> [think_ns]" per line).
func RecordTrace(w io.Writer, workloadName string, logicalPages, n int, seed uint64) error {
	prof, ok := workload.ByName(workloadName)
	if !ok {
		return fmt.Errorf("cubeftl: unknown workload %q (have %v)", workloadName, Workloads())
	}
	gen := workload.NewStream(prof, logicalPages, seed)
	return workload.WriteTrace(w, gen, n)
}

// RunTrace replays a recorded request trace against the SSD, wrapping
// around the recording if requests exceeds its length.
func (s *SSD) RunTrace(r io.Reader, name string, requests, queueDepth int) (RunStats, error) {
	tr, err := workload.ParseTrace(name, r)
	if err != nil {
		return RunStats{}, err
	}
	if max := tr.MaxLPN(); max > int64(s.ctrl.LogicalPages()) {
		return RunStats{}, fmt.Errorf("cubeftl: trace touches LPN %d beyond the device's %d pages",
			max-1, s.ctrl.LogicalPages())
	}
	return s.run(tr, workload.RunConfig{Requests: requests, QueueDepth: queueDepth})
}
