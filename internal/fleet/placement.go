package fleet

import (
	"errors"
	"fmt"
)

// ErrBadPlacement reports an unknown placement policy name.
var ErrBadPlacement = errors.New("fleet: unknown placement policy")

// Placement policy names accepted by Config.Placement.
const (
	PlaceHash     = "hash"     // FNV of (seed, tenant) — uniform, stateless
	PlaceCapacity = "capacity" // greedy fill proportional to shard capacity
)

// Placement maps a logical tenant to the shard that owns it. All
// implementations are pure functions of their construction inputs, so
// the same (policy, seed, shard weights) always produce the same map —
// the first link in the fleet determinism chain.
type Placement interface {
	Name() string
	Shard(tenant int) int
}

// NewPlacement builds a placement over shards devices for tenants
// logical tenants. weights (one per shard, used by PlaceCapacity) are
// relative capacities; nil means uniform.
func NewPlacement(name string, shards, tenants int, weights []int64, seed uint64) (Placement, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: placement needs >= 1 shard, have %d", shards)
	}
	switch name {
	case "", PlaceHash:
		return &hashPlace{shards: shards, seed: seed}, nil
	case PlaceCapacity:
		return newCapacityPlace(shards, tenants, weights), nil
	}
	return nil, fmt.Errorf("%w: %q (want %s|%s)", ErrBadPlacement, name, PlaceHash, PlaceCapacity)
}

type hashPlace struct {
	shards int
	seed   uint64
}

func (p *hashPlace) Name() string { return PlaceHash }

func (p *hashPlace) Shard(tenant int) int {
	h := fnvMix(p.seed, uint64(tenant))
	return int(h % uint64(p.shards))
}

// capacityPlace assigns tenants greedily to the shard with the lowest
// load-to-capacity ratio, so a shard with twice the logical space ends
// up owning roughly twice the tenants. The assignment is materialized
// at construction (tenant order is the iteration order, ties break to
// the lowest shard index), which keeps Shard an O(1) lookup and the
// whole map trivially deterministic.
type capacityPlace struct {
	assign []int
	shards int
}

func newCapacityPlace(shards, tenants int, weights []int64) *capacityPlace {
	if tenants < 1 {
		tenants = 1
	}
	w := make([]float64, shards)
	for i := range w {
		w[i] = 1
		if i < len(weights) && weights[i] > 0 {
			w[i] = float64(weights[i])
		}
	}
	load := make([]float64, shards)
	p := &capacityPlace{assign: make([]int, tenants), shards: shards}
	for t := 0; t < tenants; t++ {
		best := 0
		bestRatio := (load[0] + 1) / w[0]
		for s := 1; s < shards; s++ {
			if r := (load[s] + 1) / w[s]; r < bestRatio {
				best, bestRatio = s, r
			}
		}
		load[best]++
		p.assign[t] = best
	}
	return p
}

func (p *capacityPlace) Name() string { return PlaceCapacity }

func (p *capacityPlace) Shard(tenant int) int {
	if tenant < 0 {
		tenant = 0
	}
	if tenant >= len(p.assign) {
		tenant = len(p.assign) - 1
	}
	return p.assign[tenant]
}

// fnvMix hashes two words with FNV-1a over their bytes.
func fnvMix(a, b uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h = (h ^ (a >> (8 * i) & 0xff)) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (b >> (8 * i) & 0xff)) * prime
	}
	return h
}

// fnvString folds a string into a running FNV-1a hash.
func fnvString(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}
