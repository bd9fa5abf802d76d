package obs

import (
	"flag"
	"time"
)

// StatsConfig is the -stats-out / -stats-interval pair: where a binary
// writes its telemetry series and how often it samples. cubesim and
// cubefleet bind it here, once, with one default.
type StatsConfig struct {
	Out      string
	Interval time.Duration
}

// RegisterFlags installs the two flags on fs.
func (s *StatsConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Out, "stats-out", "", "write one JSON telemetry sample per -stats-interval of simulated time to this file (cubefleet: one line per interval holding every shard's sample)")
	fs.DurationVar(&s.Interval, "stats-interval", time.Millisecond, "simulated time between -stats-out samples")
}
