package vtime

import (
	"testing"
	"testing/quick"
)

func TestConversions(t *testing.T) {
	if FromMicros(1.5) != 1500 {
		t.Errorf("FromMicros(1.5) = %d", FromMicros(1.5))
	}
	if d := Duration(2500); d.Micros() != 2.5 {
		t.Errorf("Micros = %v", d.Micros())
	}
	if Time(1500000000).Seconds() != 1.5 {
		t.Errorf("Seconds = %v", Time(1500000000).Seconds())
	}
}

func TestAddSub(t *testing.T) {
	prop := func(a, b int32) bool {
		t0 := Time(a)
		d := Duration(b)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := Time(1234567).String(); got != "0.001235s" {
		t.Errorf("Time.String() = %q", got)
	}
}
