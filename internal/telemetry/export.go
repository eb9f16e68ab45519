package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONL is a concurrency-safe, buffered JSON-lines emitter: every Emit
// writes one JSON object on its own line. It is the wire format of the
// -metrics flags on the cmd tools. A nil *JSONL no-ops, so callers can
// thread a single pointer through and leave it nil when metrics are off.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer // non-nil when the emitter owns the file
}

// NewJSONL wraps w in a buffered JSONL emitter. Call Close to flush.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// CreateJSONL creates (truncating) path and returns an emitter that owns
// the file: Close flushes and closes it.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: metrics file: %w", err)
	}
	j := NewJSONL(f)
	j.c = f
	return j, nil
}

// Emit writes record as one JSON line. Marshalling errors are returned
// but leave the emitter usable.
func (j *JSONL) Emit(record any) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enc.Encode(record)
}

// Close flushes and, when the emitter owns its file, closes it. The
// first error encountered wins (flush errors are not masked by a
// successful close, and vice versa).
func (j *JSONL) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.bw.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
