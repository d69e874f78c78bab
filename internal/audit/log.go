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
// Writes go to the sink verbatim and a bounded tail is retained in memory
// for tests and operator introspection. All methods are safe for
// concurrent use.
type Log struct {
	mu   sync.Mutex
	w    io.Writer
	now  func() int64
	tail []string
}

// tailCap bounds the in-memory tail; the sink keeps the full trail.
const tailCap = 256

// NewLog creates a log writing to w (nil keeps events in memory only).
// now supplies the clock in Unix seconds; nil means time.Now — the
// deterministic simulator injects its own.
func NewLog(w io.Writer, now func() int64) *Log {
	if now == nil {
		now = func() int64 { return time.Now().Unix() }
	}
	return &Log{w: w, now: now}
}

// Append records one event. Sink write errors are deliberately swallowed:
// an audit trail must never take down the serving path it describes, and
// the in-memory tail still has the event.
func (l *Log) Append(event, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	line := fmt.Sprintf("%d %s %s", l.now(), event, detail)
	if l.w != nil {
		fmt.Fprintln(l.w, line)
	}
	if len(l.tail) >= tailCap {
		copy(l.tail, l.tail[1:])
		l.tail = l.tail[:tailCap-1]
	}
	l.tail = append(l.tail, line)
}

// Tail returns a copy of the retained recent lines, oldest first.
func (l *Log) Tail() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.tail))
	copy(out, l.tail)
	return out
}
