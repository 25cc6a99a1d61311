// Package vtime provides the virtual-time representation used by the
// machine simulator. All simulated costs are expressed in nanoseconds of
// virtual time, independent of wall-clock time, so simulated executions are
// deterministic and reproducible.
package vtime

import "fmt"

// Time is a point on a virtual processor's clock, in nanoseconds since the
// start of the simulated execution. The zero value is the start of time.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromMicros converts a duration expressed in (possibly fractional)
// microseconds to a Duration.
func FromMicros(us float64) Duration {
	return Duration(us * float64(Microsecond))
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as fractional seconds since the start of the
// simulated execution.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports the duration in fractional microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration in fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// String formats the duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.6fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}
