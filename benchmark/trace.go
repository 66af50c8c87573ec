package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the replay into a layer. Times are
// nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Side   string `json:"side"`   // miner, follower, node or p2p
	Name   string `json:"name"`   // <module>.<op>
	Block  int    `json:"block"`  // which replayed block caused it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover,
	// filled in by finish.
	Self int64 `json:"self_ns"`
}

// recorder keeps the replay's spans in memory. The replay records from
// one goroutine, so the open-span stack needs no lock. A nil recorder
// records nothing: the untraced replay runs the same code with it.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (r *recorder) begin(side, name string, block int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Side: side, Name: name, Block: block, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// finish derives every span's self time.
func (r *recorder) finish() {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].End - r.spans[i].Start
	}
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			r.spans[p].Self -= r.spans[i].End - r.spans[i].Start
		}
	}
}

// total sums the durations of the spans with the given side and name
// and counts them.
func (r *recorder) total(side, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for i := range r.spans {
		if s := &r.spans[i]; s.Side == side && s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
