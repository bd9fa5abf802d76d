package rng

// MaxRank's exact fall-backs, for the external tests.
const (
	ExactWalk  = exactWalk
	ExactPair  = exactPair
	ExactDraws = exactDraws
)

// CountExact makes MaxRank count its exact fall-backs by path into n
// until the returned function is called.
func CountExact(n *[3]int) (stop func()) {
	traceExact = func(path int) { n[path]++ }
	return func() { traceExact = nil }
}
