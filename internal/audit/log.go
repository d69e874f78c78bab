package audit

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Log is an append-only operational audit trail: where the format auditor
// (audit.go) bounds what a Glimmer can say, the log records what the
// *operator's* infrastructure did — recovery events today (snapshot
// taken, WAL replayed, torn tail truncated; see internal/durable), with
// provisioning and grant events as ROADMAP follow-ons. Lines are plain
// text, one event each, so the trail survives in any log pipeline:
//
//	<unix-seconds> <event> <detail>
//
// Writes go to the sink verbatim; the log keeps nothing in memory. All
// methods are safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	w   io.Writer
	now func() int64
}

// NewLog creates a log writing to w (nil discards every event).
// now supplies the clock in Unix seconds; nil means time.Now — the
// deterministic simulator injects its own.
func NewLog(w io.Writer, now func() int64) *Log {
	if now == nil {
		now = func() int64 { return time.Now().Unix() }
	}
	return &Log{w: w, now: now}
}

// Append records one event. Sink write errors are deliberately swallowed:
// an audit trail must never take down the serving path it describes.
func (l *Log) Append(event, format string, args ...any) {
	if l.w == nil {
		return
	}
	detail := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%d %s %s\n", l.now(), event, detail)
}
