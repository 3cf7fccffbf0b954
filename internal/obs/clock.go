package obs

import (
	"sync"
	"time"
)

// Clock is the read-only time seam that makes the telemetry plane
// clock-agnostic: the discrete-event drivers (internal/cluster,
// internal/replay) bind *simclock.Clock, which satisfies it structurally,
// while the live serving plane binds a WallClock. All times are seconds;
// the epoch is driver-defined (the simulators start at 0, WallClock at its
// first use).
//
// obs defines its own single-method interface instead of importing the
// batching package's richer Clock so it stays a stdlib-only leaf package;
// anything satisfying the scheduler's Clock satisfies this one too.
type Clock interface {
	// Now returns the current time in seconds since the clock's epoch.
	Now() float64
}

// ClockFunc adapts a plain function to the Clock seam.
type ClockFunc func() float64

// Now implements Clock.
func (f ClockFunc) Now() float64 { return f() }

// WallClock is the live drivers' Clock: seconds since its first use. It
// also converts wall timestamps the serving plane already holds
// (time.Time) onto the same axis, so spans measured with time.Now() land
// on the clock's scale without double reads, and it schedules callbacks
// (At, After) so the serving plane's batching.Runner runs on the same
// clock its telemetry is stamped with.
type WallClock struct {
	epoch time.Time
	once  sync.Once
}

func (c *WallClock) init() { c.once.Do(func() { c.epoch = time.Now() }) }

// Now returns seconds since the clock's first use.
func (c *WallClock) Now() float64 {
	c.init()
	return time.Since(c.epoch).Seconds()
}

// Seconds places a wall timestamp on the clock's axis (seconds since
// epoch; negative for timestamps taken before first use).
func (c *WallClock) Seconds(t time.Time) float64 {
	c.init()
	return t.Sub(c.epoch).Seconds()
}

// At runs fn on its own goroutine at t seconds after epoch, or as soon as
// it can when t has passed.
func (c *WallClock) At(t float64, fn func()) { c.After(t-c.Now(), fn) }

// After runs fn on its own goroutine delay seconds from now.
func (c *WallClock) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	time.AfterFunc(time.Duration(delay*float64(time.Second)), fn)
}
