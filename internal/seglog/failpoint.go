package seglog

import "fmt"

// FailMode selects how an injected crash corrupts the log, covering the
// three physical outcomes of dying mid-write.
type FailMode int

const (
	// FailNone disarms the failpoint.
	FailNone FailMode = iota
	// FailCut crashes before the frame is written at all: a clean cut
	// at the previous frame boundary.
	FailCut
	// FailTorn writes only the first half of the frame: a torn record
	// that recovery must detect by its short body.
	FailTorn
	// FailGarble writes the whole frame with one payload byte flipped
	// after the CRC was computed: bit rot / misdirected write that
	// recovery must detect by checksum.
	FailGarble
)

var failModeNames = [...]string{"none", "cut", "torn", "garble"}

// String returns the matrix-cell name of the mode.
func (m FailMode) String() string {
	if m >= 0 && int(m) < len(failModeNames) {
		return failModeNames[m]
	}
	return fmt.Sprintf("FailMode(%d)", int(m))
}

// failpoint is the armed failpoint of one Log.
type failpoint struct {
	mode  FailMode
	at    uint64 // fire on the at-th append (1-based) counted from arming
	count uint64 // appends observed since arming
}

// SetFailpoint arms a deterministic crash: the nth Append after this
// call (1-based) corrupts the log according to mode and latches it into
// the crashed state — every later write returns ErrCrashed, exactly as
// if the process had died. Tests reopen the directory to exercise
// recovery. Pass FailNone to disarm.
func (l *Log) SetFailpoint(mode FailMode, nthAppend uint64) {
	l.fp = failpoint{mode: mode, at: nthAppend}
}

// Crashed reports whether the failpoint has fired.
func (l *Log) Crashed() bool { return l.crashed }

// fireFailpoint counts one append against the armed failpoint; when the
// trigger count is reached it writes the configured corruption, makes it
// durable, latches the crashed state and returns true: the append must
// fail with ErrCrashed.
func (l *Log) fireFailpoint(frame []byte) bool {
	l.fp.count++
	if l.fp.count < l.fp.at {
		return false
	}
	mode := l.fp.mode
	l.fp = failpoint{}
	l.crashed = true
	// The writes below are the simulated crash itself; a process that
	// is dying does not get to handle their errors.
	switch mode {
	case FailTorn:
		_, _ = l.active.Write(frame[:len(frame)/2])
	case FailGarble:
		garbled := append([]byte(nil), frame...)
		garbled[len(garbled)-1] ^= 0xFF // flip payload bits after the CRC
		_, _ = l.active.Write(garbled)
	}
	_ = l.active.Sync() // make the corruption durable so recovery sees exactly this state
	return true
}
