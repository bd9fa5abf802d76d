package telemetry

// FNV-1a constants for the grant-trace replay hash. These must match
// the historical values used by the host front end: the hash of a run
// is part of its determinism contract (same seed → same hash), and
// tests compare hashes across configurations.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// GrantTrace folds every arbitration grant into an FNV-1a hash, the
// replay/determinism fingerprint. When built via Hub.NewGrantTrace with
// tracing enabled, each grant also lands as an instant event in the
// shared trace event stream, on the host track of the granted queue.
type GrantTrace struct {
	hash   uint64
	grants int64
	hub    *Hub
}

// NewGrantTrace returns an empty trace.
func NewGrantTrace() *GrantTrace { return &GrantTrace{hash: fnvOffset} }

// Grant records that queue idx won arbitration.
func (g *GrantTrace) Grant(idx int) {
	g.grants++
	g.hash = (g.hash ^ uint64(idx+1)) * fnvPrime
	if g.hub.TraceOp() {
		g.hub.Instant(PidHost, idx, "grant")
	}
}

// Hash returns the FNV-1a fold of every grant so far.
func (g *GrantTrace) Hash() uint64 { return g.hash }

// Grants returns the total number of grants recorded.
func (g *GrantTrace) Grants() int64 { return g.grants }
