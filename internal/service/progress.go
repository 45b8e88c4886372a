package service

import (
	"sttsim/internal/dist"
	"sttsim/internal/obs"
	"sttsim/internal/sim"
)

// progressFeed publishes a dist.ProgressCounter's snapshot on the run's hub
// topic every progressInterval cycles, and forwards stats probe samples as
// they are taken. It runs on the simulator's goroutine (sinks are
// single-goroutine by contract); the hub does the cross-goroutine handoff.
type progressFeed struct {
	hub     *Hub
	key     string
	count   *dist.ProgressCounter
	lastPub uint64
}

// newProgressFeed builds the feed for one run.
func newProgressFeed(hub *Hub, key string, cfg sim.Config) *progressFeed {
	return &progressFeed{hub: hub, key: key, count: dist.NewProgressCounter(cfg)}
}

// Sink returns the obs.Sink half of the feed.
func (p *progressFeed) Sink() obs.Sink {
	return obs.FuncSink(func(ev obs.Event) error {
		p.count.Count(ev)
		// The event crossing a period boundary is the latest cycle seen, so
		// the snapshot reports exactly ev.Cycle.
		if ev.Cycle >= p.lastPub+progressInterval {
			p.lastPub = ev.Cycle - ev.Cycle%progressInterval
			p.hub.Publish(p.key, "progress", p.count.Snapshot())
		}
		return nil
	})
}

// OnSample is the stats.SampleFunc half: one event per sampling tick.
func (p *progressFeed) OnSample(cycle uint64, names []string, values []float64) {
	m := make(map[string]float64, len(names))
	for i, name := range names {
		m[name] = values[i]
	}
	p.hub.Publish(p.key, "sample", sampleEvent{Cycle: cycle, Metrics: m})
}
