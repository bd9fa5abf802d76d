package metrics

import (
	"fmt"
	"strings"
)

// CounterSet is an ordered collection of named int64 counters — the
// reporting shape for event counts (fault handling, recovery actions)
// that don't fit a histogram. Order of insertion is preserved so
// reports print deterministically.
type CounterSet struct {
	names  []string
	values map[string]int64
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet {
	return &CounterSet{values: make(map[string]int64)}
}

// Add sets a counter's value, appending the name on first use.
func (c *CounterSet) Add(name string, v int64) {
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] = v
}

// Inc increments a counter by delta, creating it at zero if absent.
func (c *CounterSet) Inc(name string, delta int64) {
	if _, ok := c.values[name]; !ok {
		c.names = append(c.names, name)
	}
	c.values[name] += delta
}

// Get returns a counter's value (zero if absent).
func (c *CounterSet) Get(name string) int64 { return c.values[name] }

// String renders "name=value" pairs in insertion order.
func (c *CounterSet) String() string {
	var b strings.Builder
	for i, n := range c.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.values[n])
	}
	return b.String()
}
