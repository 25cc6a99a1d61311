package trace

import (
	"encoding/json"
	"io"
)

// refEvent is a chromeEvent as encoding/json marshals it, its arguments in
// a map: the reference appendJSON is held to.
type refEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// marshalRef appends e as encoding/json renders its refEvent.
func marshalRef(e *chromeEvent, b []byte) []byte {
	r := refEvent{Name: e.Name, Cat: e.Cat, Ph: e.Ph, Ts: e.Ts, Dur: e.Dur, Pid: e.Pid, Tid: e.Tid, Scope: e.Scope, ID: e.ID, BP: e.BP}
	if e.NArgs > 0 {
		r.Args = map[string]any{}
		for _, a := range e.Args[:e.NArgs] {
			if a.Str != "" {
				r.Args[a.Key] = a.Str
			} else {
				r.Args[a.Key] = a.Num
			}
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return append(b, data...)
}

// WriteChromeReference is WriteChrome with every event marshaled by
// encoding/json.
func WriteChromeReference(w io.Writer, r *Recorder) error { return writeChrome(w, r, marshalRef) }
