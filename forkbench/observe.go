package main

import (
	"time"

	"forkwatch/internal/sim"
)

// The engine delivers observer callbacks serially at each day barrier,
// so the observers below need no locking.

// timedObserver wraps an engine observer and accumulates its self time
// per simulated day.
type timedObserver struct {
	name  string
	inner sim.Observer
	first time.Time // first callback of the current day
	enter time.Time // start of the latest OnBlock
	day   time.Duration
	calls int
	total time.Duration
}

func (o *timedObserver) OnBlock(ev *sim.BlockEvent) {
	t := time.Now()
	o.enter = t
	if o.calls == 0 {
		o.first = t
	}
	o.inner.OnBlock(ev)
	o.day += time.Since(t)
	o.calls++
}

func (o *timedObserver) OnDay(ev *sim.DayEvent) {
	t := time.Now()
	if o.calls == 0 {
		o.first = t
	}
	o.inner.OnDay(ev)
	o.day += time.Since(t)
	o.calls++
}

// dayClock is the last observer on an engine. It counts blocks and
// timestamps every day barrier; traced, it emits one sim.day span per
// day with each wrapped observer's aggregated span for that day under
// it.
type dayClock struct {
	tr      *tracer
	parent  int
	last    time.Time // previous barrier, or the run's start
	engine  []float64 // ms between day barriers minus the wrapped observers' self time
	blocks  int
	wrapped []*timedObserver

	// upstream, when set, is the first benchmark observer on an engine
	// whose earlier observers are not the benchmark's (the live plane
	// serve.BuildLive attaches). Within a day's delivery, the time from
	// the clock's last block callback to upstream's next one is spent in
	// those observers; it is recorded as upstreamName, per day. The
	// first block of a day is skipped: its gap holds the engine's step.
	upstream     *timedObserver
	upstreamName string
	lastExit     time.Time
	upFirst      time.Time
	upDay        time.Duration
	upCalls      int
	upTotal      time.Duration
}

func newDayClock(tr *tracer, wrapped ...*timedObserver) *dayClock {
	return &dayClock{tr: tr, wrapped: wrapped}
}

// start marks the beginning of Engine.Run.
func (c *dayClock) start() {
	c.last = time.Now()
	c.parent = c.tr.current()
}

func (c *dayClock) OnBlock(*sim.BlockEvent) {
	c.blocks++
	if c.upstream == nil {
		return
	}
	if !c.lastExit.IsZero() {
		if c.upCalls == 0 {
			c.upFirst = c.lastExit
		}
		c.upDay += c.upstream.enter.Sub(c.lastExit)
		c.upCalls++
	}
	c.lastExit = time.Now()
}

func (c *dayClock) OnDay(*sim.DayEvent) {
	now := time.Now()
	gap := now.Sub(c.last)
	var self time.Duration
	for _, w := range c.wrapped {
		self += w.day
	}
	self += c.upDay
	c.engine = append(c.engine, ms(gap-self))
	if c.tr != nil {
		id := c.tr.add("sim.day", c.parent, c.last, gap, 0)
		for _, w := range c.wrapped {
			if w.calls > 0 {
				c.tr.add(w.name, id, w.first, w.day, w.calls)
			}
		}
		if c.upCalls > 0 {
			c.tr.add(c.upstreamName, id, c.upFirst, c.upDay, c.upCalls)
		}
	}
	c.upTotal += c.upDay
	c.upDay, c.upCalls, c.lastExit = 0, 0, time.Time{}
	for _, w := range c.wrapped {
		w.total += w.day
		w.day, w.calls = 0, 0
	}
	c.last = time.Now()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
