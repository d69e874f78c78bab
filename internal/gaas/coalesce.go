package gaas

import (
	"net"
	"slices"
	"sync"
)

// maxRecordPlaintext is the most plaintext one TLS record carries (RFC 8446
// §5.1). crypto/tls hands each record to its transport as a separate Write,
// so a frame larger than this costs one socket write per record unless the
// records are gathered first.
const maxRecordPlaintext = 16 << 10

// recordOverhead is what TLS 1.3 adds to a record's plaintext: the 5-byte
// header, the inner content type and a 16-byte AEAD tag. It only sizes the
// hold buffer; a larger overhead just grows it.
const recordOverhead = 5 + 1 + 16

// coalesceConn sits between a client's TCP conn and tls.Client so that a
// frame crypto/tls seals into many records still reaches the socket as one
// write. While frameWriter holds a frame, every record tls.Conn.Write
// produces is appended to a pooled hold buffer, and the whole run is
// flushed in a single Write before the reply is read. At any other time —
// the handshake, alerts, close_notify — Write passes straight through, and
// reads, deadlines and Close always do (the embedded conn). The records are
// the bytes crypto/tls produced either way; only their grouping into
// syscalls changes.
type coalesceConn struct {
	net.Conn

	// mu orders held records against direct writes: a record another
	// goroutine writes mid-frame (a concurrent Close's close_notify) joins
	// the hold behind the frame's records instead of overtaking them.
	mu   sync.Mutex
	hold *[]byte // non-nil while a frame's records are held
	// err is the first failed flush's error, returned by every later
	// Write: the frame's records were sealed under sequence numbers the
	// peer never received, so the stream is broken — as crypto/tls
	// treats a failed write of its own.
	err error
}

func (c *coalesceConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.err != nil:
		return 0, c.err
	case c.hold != nil:
		*c.hold = append(*c.hold, p...)
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// flush writes the held records in one Write and ends the hold.
func (c *coalesceConn) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := *c.hold
	c.hold = nil
	if _, err := c.Conn.Write(held); err != nil {
		c.err = err
		return err
	}
	return nil
}

// setHold starts or (nil) ends a hold.
func (c *coalesceConn) setHold(bufp *[]byte) {
	c.mu.Lock()
	c.hold = bufp
	c.mu.Unlock()
}

// frameWriter writes a client's encoded frames into its TLS conn, holding a
// frame's records in the coalesceConn under it when the frame spans more
// than one record. A frame that fits one record — every frame of a
// device-sized session — is written as it is, and holds nothing.
type frameWriter struct {
	tls net.Conn
	co  *coalesceConn
}

func (w *frameWriter) Write(frame []byte) (int, error) {
	if len(frame) <= maxRecordPlaintext {
		return w.tls.Write(frame)
	}
	bufp := frameBufPool.Get().(*[]byte)
	*bufp = slices.Grow((*bufp)[:0], len(frame)+(len(frame)/maxRecordPlaintext+1)*recordOverhead)
	w.co.setHold(bufp)
	// Whatever fails, the hold ends and its bytes go back to the pool
	// unsent: an idle client keeps no buffer, and nothing of a failed
	// frame can ride out with the next one.
	defer func() {
		w.co.setHold(nil)
		*bufp = (*bufp)[:0]
		putFrameBuf(bufp)
	}()
	n, err := w.tls.Write(frame)
	if err != nil {
		return n, err
	}
	return n, w.co.flush()
}
