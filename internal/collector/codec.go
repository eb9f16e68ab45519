package collector

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"sage/internal/gr"
	"sage/internal/safeio"
	"sage/internal/sim"
)

// A pool on disk and a pool shard on the wire carry one stream, a
// columnar encoding with all integers little-endian uint64 (signed ones
// two's complement, floats as math.Float64bits):
//
//	"SAGEPOOL" version
//	gr.Config: Interval Small Medium Large Xi Kappa RewardWindow
//	trajectory count, then per trajectory:
//	  Scheme Env MultiFlow(one byte, 0 or 1) Score n d
//	  states: n×d values feature-major (column 0 of every step, then column 1, …)
//	  actions: n values; rewards: n values
//	failed-cell count, then per cell: Scheme Env Err
//
// A string is its byte length and its bytes. Every state of a trajectory
// has width d; the encoder refuses a ragged trajectory. Feature-major
// puts the slowly moving windowed statistics of consecutive ticks next
// to each other, where deflate finds them (DESIGN.md §6.2).
// The stream ends after the last failed cell: the decoder refuses
// trailing bytes, so a pool it accepts re-encodes to the same stream.
//
// The payload is one or more gzip members (BestSpeed) whose concatenation
// gunzips to the stream: member i holds stream bytes [i·memberChunk,
// (i+1)·memberChunk), the last one the rest. The cuts depend on stream
// offsets alone, so a pool's payload bytes do not depend on how many
// lanes deflated them. gzip.Reader reads concatenated members as one
// stream, so a payload of one member, as every pool before the cuts was
// written, decodes alike.
const (
	poolMagic   = "SAGEPOOL"
	poolVersion = 1

	// maxPoolString bounds a scheme, env or error string.
	maxPoolString = 1 << 20
	// decodeChunk is the most the decoder allocates for a block before
	// the block's bytes start to arrive; past it, its buffer doubles only
	// as bytes arrive, so a count or width that lies costs what its bytes
	// paid for plus this chunk.
	decodeChunk = 64 << 10
	// memberChunk is the stream bytes one gzip member carries.
	memberChunk = 256 << 10
	// maxLanes bounds the goroutines that deflate members at once.
	maxLanes = 4
)

// poolWriter is the encoder's state, reused across encodes through the
// poolWriters free list. The caller fills one chunk while up to lanes
// goroutines deflate the chunks before it; chunk k fills slot k % slots
// of members, and the caller writes the gzip members to w in stream
// order. With one lane the caller deflates each chunk itself and starts
// no goroutine.
type poolWriter struct {
	w        io.Writer
	err      error // the first write error; nothing is written after it
	buf      []byte
	members  []*member // the chunk buffers, of which this encode uses slots
	slots    int
	zws      []*gzip.Writer // one per lane
	jobs     chan *member   // nil when the caller deflates
	lanes    sync.WaitGroup
	cut, out int // chunks cut, and members written or dropped, so far
}

// member is one chunk of the stream and, once deflated, its gzip member.
type member struct {
	in   []byte
	gz   bytes.Buffer
	live bool          // cut before any write failed, so it is deflated
	done chan struct{} // a lane's signal that gz is complete
}

// poolWriters holds idle encoders. Unlike a sync.Pool, a garbage
// collection does not empty it, so an encode after a collection does not
// build its deflaters (about 1.2 MB each) again. It keeps two, up to
// ≈ 8 MB at four lanes: one for a pool's save and one for a shard encoded
// while it runs, not one for every encode that ever overlapped.
var poolWriters = make(chan *poolWriter, 2)

// EncodePool writes p to w in the pool format. A ragged trajectory (two
// states of different widths) or an over-long string is an error naming
// the cell, found before anything is written.
func EncodePool(w io.Writer, p *Pool) error {
	size, err := checkEncodable(p)
	if err != nil {
		return err
	}
	var e *poolWriter
	select {
	case e = <-poolWriters:
	default:
		e = new(poolWriter)
	}
	e.start(w, size)
	e.buf = append(e.buf, poolMagic...)
	e.u64(poolVersion)
	c := p.GR
	e.u64(uint64(c.Interval))
	e.u64(uint64(c.Small))
	e.u64(uint64(c.Medium))
	e.u64(uint64(c.Large))
	e.u64(math.Float64bits(c.Xi))
	e.u64(math.Float64bits(c.Kappa))
	e.u64(uint64(c.RewardWindow))
	e.u64(uint64(len(p.Trajs)))
	for t := range p.Trajs {
		tr := &p.Trajs[t]
		steps := tr.Steps
		n, d := len(steps), 0
		if n > 0 {
			d = len(steps[0].State)
		}
		e.str(tr.Scheme)
		e.str(tr.Env)
		mf := byte(0)
		if tr.MultiFlow {
			mf = 1
		}
		e.byte(mf)
		e.u64(math.Float64bits(tr.Score))
		e.u64(uint64(n))
		e.u64(uint64(d))
		for j := 0; j < d; j++ {
			for i := range steps {
				e.u64(math.Float64bits(steps[i].State[j]))
			}
		}
		for i := range steps {
			e.u64(math.Float64bits(steps[i].Action))
		}
		for i := range steps {
			e.u64(math.Float64bits(steps[i].Reward))
		}
	}
	e.u64(uint64(len(p.Failed)))
	for _, f := range p.Failed {
		e.str(f.Scheme)
		e.str(f.Env)
		e.str(f.Err)
	}
	err = e.finish()
	select {
	case poolWriters <- e:
	default:
	}
	return err
}

// checkEncodable finds what the format cannot hold before a byte is
// written, and returns the stream's length.
func checkEncodable(p *Pool) (int, error) {
	long := func(s string) bool { return len(s) > maxPoolString }
	size := len(poolMagic) + 8*(1+7+1+1)
	for i := range p.Trajs {
		tr := &p.Trajs[i]
		if long(tr.Scheme) || long(tr.Env) {
			return 0, fmt.Errorf("trajectory %d: name over %d bytes", i, maxPoolString)
		}
		if s, ok := raggedStep(tr.Steps); !ok {
			return 0, fmt.Errorf("trajectory %s/%s: step %d has %d state values, step 0 has %d", tr.Scheme, tr.Env, s, len(tr.Steps[s].State), len(tr.Steps[0].State))
		}
		d := 0
		if len(tr.Steps) > 0 {
			d = len(tr.Steps[0].State)
		}
		size += 8*5 + 1 + len(tr.Scheme) + len(tr.Env) + 8*len(tr.Steps)*(d+2)
	}
	for _, f := range p.Failed {
		if long(f.Scheme) || long(f.Env) || long(f.Err) {
			return 0, fmt.Errorf("failed cell %.64s/%.64s: string over %d bytes", f.Scheme, f.Env, maxPoolString)
		}
		size += 8*3 + len(f.Scheme) + len(f.Env) + len(f.Err)
	}
	return size, nil
}

// raggedStep returns the first step whose state width differs from step
// 0's, and false; or true when every state has one width.
func raggedStep(steps []gr.Step) (int, bool) {
	for i := range steps {
		if len(steps[i].State) != len(steps[0].State) {
			return i, false
		}
	}
	return 0, true
}

// start readies e for a stream of size bytes to w: as many lanes as there
// are cores and chunks, at most maxLanes, and one chunk slot more than
// lanes, for the caller to fill.
func (e *poolWriter) start(w io.Writer, size int) {
	chunks := (size + memberChunk - 1) / memberChunk
	lanes := min(runtime.GOMAXPROCS(0), maxLanes, chunks)
	slots := 1
	if lanes > 1 {
		slots = min(lanes+1, chunks)
	}
	for len(e.members) < slots {
		e.members = append(e.members, &member{in: make([]byte, 0, memberChunk), done: make(chan struct{}, 1)})
	}
	for len(e.zws) < max(lanes, 1) {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // the level is valid
		e.zws = append(e.zws, zw)
	}
	e.w, e.err, e.slots, e.cut, e.out = w, nil, slots, 0, 0
	e.buf = e.members[0].in[:0]
	if lanes > 1 {
		e.jobs = make(chan *member, slots) // room for every chunk a cut can find in flight
		e.lanes.Add(lanes)
		for _, zw := range e.zws[:lanes] {
			go e.lane(zw)
		}
	}
}

// lane deflates the chunks it is handed until the encode ends.
func (e *poolWriter) lane(zw *gzip.Writer) {
	defer e.lanes.Done()
	for m := range e.jobs {
		m.deflate(zw)
		m.done <- struct{}{}
	}
}

func (m *member) deflate(zw *gzip.Writer) {
	m.gz.Reset()
	zw.Reset(&m.gz)
	zw.Write(m.in) // a bytes.Buffer does not fail a write
	zw.Close()
	zw.Reset(nil)
}

// cutChunk ends the chunk being filled: it goes to a lane, or is deflated
// and written on the caller when there are no lanes. After a write error
// a chunk is dropped instead.
func (e *poolWriter) cutChunk() {
	m := e.members[e.cut%e.slots]
	m.in, m.live = e.buf, e.err == nil
	e.cut++
	switch {
	case !m.live:
	case e.jobs == nil:
		m.deflate(e.zws[0])
	default:
		e.jobs <- m
	}
	if e.jobs == nil {
		e.collect()
	}
}

// collect writes the next member in stream order, waiting for its lane.
func (e *poolWriter) collect() {
	m := e.members[e.out%e.slots]
	e.out++
	if !m.live {
		return
	}
	if e.jobs != nil {
		<-m.done
	}
	if e.err == nil {
		_, e.err = e.w.Write(m.gz.Bytes())
	}
}

// next cuts the full chunk and readies the next one's slot, first
// writing the member that slot held.
func (e *poolWriter) next() {
	e.cutChunk()
	for e.out+e.slots <= e.cut {
		e.collect()
	}
	e.buf = e.members[e.cut%e.slots].in[:0]
}

// finish cuts the last chunk, writes every member still in a lane, and
// stops the lanes, so no goroutine outlives the encode, error or not.
func (e *poolWriter) finish() error {
	e.cutChunk()
	for e.out < e.cut {
		e.collect()
	}
	if e.jobs != nil {
		close(e.jobs)
		e.lanes.Wait()
		e.jobs = nil
	}
	err := e.err
	e.w, e.err, e.buf = nil, nil, nil
	return err
}

func (e *poolWriter) byte(b byte) {
	if len(e.buf) == memberChunk {
		e.next()
	}
	e.buf = append(e.buf, b)
}

func (e *poolWriter) u64(v uint64) {
	if len(e.buf)+8 <= memberChunk {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		return
	}
	for i := 0; i < 8; i++ { // a value that straddles a cut
		e.byte(byte(v >> (8 * i)))
	}
}

func (e *poolWriter) str(s string) {
	e.u64(uint64(len(s)))
	for {
		n := copy(e.buf[len(e.buf):memberChunk], s)
		e.buf, s = e.buf[:len(e.buf)+n], s[n:]
		if len(s) == 0 {
			return
		}
		e.next()
	}
}

// DecodePool decodes a payload EncodePool wrote. A payload whose gunzipped
// stream does not open with the pool magic is a gob-encoded pool, the
// format before this one, and goes to gob; that format is read here and
// written nowhere. The decoder treats its input as hostile: no count,
// width or length sizes an allocation beyond decodeChunk before the bytes
// behind it have arrived. (The gob path keeps gob's own bound: a message
// length prefix under 10 MiB is allocated whole before its bytes arrive.)
func DecodePool(payload []byte) (*Pool, error) {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("gzip: %w — %w", err, safeio.ErrCorrupt)
	}
	br := bufio.NewReader(zr)
	if head, _ := br.Peek(len(poolMagic)); string(head) != poolMagic {
		var p Pool
		if err := gob.NewDecoder(br).Decode(&p); err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		return &p, nil
	}
	d := &poolReader{r: br}
	p, err := d.pool()
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return p, nil
}

// poolReader reads the pool format through one reusable block buffer.
type poolReader struct {
	r       *bufio.Reader
	scratch []byte
}

func (d *poolReader) pool() (*Pool, error) {
	d.r.Discard(len(poolMagic)) // DecodePool has peeked them
	if v, err := d.u64(); err != nil {
		return nil, err
	} else if v != poolVersion {
		return nil, fmt.Errorf("pool format version %d, want %d", v, poolVersion)
	}
	var cfg [7]uint64
	for i := range cfg {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		cfg[i] = v
	}
	p := &Pool{GR: gr.Config{
		Interval:     sim.Time(int64(cfg[0])),
		Small:        int(int64(cfg[1])),
		Medium:       int(int64(cfg[2])),
		Large:        int(int64(cfg[3])),
		Xi:           math.Float64frombits(cfg[4]),
		Kappa:        math.Float64frombits(cfg[5]),
		RewardWindow: int(int64(cfg[6])),
	}}
	ntraj, err := d.u64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ntraj; i++ {
		tr, err := d.trajectory()
		if err != nil {
			return nil, fmt.Errorf("trajectory %d: %w", i, err)
		}
		p.Trajs = append(p.Trajs, tr)
	}
	nfailed, err := d.u64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nfailed; i++ {
		var f FailedCell
		for _, s := range []*string{&f.Scheme, &f.Env, &f.Err} {
			if *s, err = d.str(); err != nil {
				return nil, fmt.Errorf("failed cell %d: %w", i, err)
			}
		}
		p.Failed = append(p.Failed, f)
	}
	// Reading past the end makes gzip check its checksum and length.
	switch _, err := d.r.ReadByte(); err {
	case io.EOF:
		return p, nil
	case nil:
		return nil, errors.New("bytes after the last failed cell")
	default:
		return nil, err
	}
}

func (d *poolReader) trajectory() (Trajectory, error) {
	var tr Trajectory
	var err error
	if tr.Scheme, err = d.str(); err != nil {
		return tr, err
	}
	if tr.Env, err = d.str(); err != nil {
		return tr, err
	}
	mf, err := d.read(1)
	if err != nil {
		return tr, err
	}
	if mf[0] > 1 {
		return tr, fmt.Errorf("MultiFlow byte %d", mf[0])
	}
	tr.MultiFlow = mf[0] == 1
	var hdr [3]uint64
	for i := range hdr {
		if hdr[i], err = d.u64(); err != nil {
			return tr, err
		}
	}
	tr.Score = math.Float64frombits(hdr[0])
	n, w := hdr[1], hdr[2]
	if n == 0 {
		if w != 0 {
			return tr, fmt.Errorf("state width %d without steps", w)
		}
		return tr, nil
	}
	// The block is n×(w+2) values: refuse a claim whose byte count
	// overflows (w+2 included) before reading it.
	hi, vals := bits.Mul64(n, w+2)
	if w > math.MaxInt32 || hi != 0 || vals > math.MaxInt/16 {
		return tr, fmt.Errorf("%d steps of width %d is not a trajectory", n, w)
	}
	block, err := d.read(int(8 * vals))
	if err != nil {
		return tr, err
	}
	at := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(block[8*k:])) }
	steps, width := int(n), int(w)
	tr.Steps = make([]gr.Step, steps)
	if width > 0 {
		arena := make([]float64, steps*width)
		for j := 0; j < width; j++ {
			col := j * steps
			for i := 0; i < steps; i++ {
				arena[i*width+j] = at(col + i)
			}
		}
		for i := range tr.Steps {
			tr.Steps[i].State = arena[i*width : (i+1)*width : (i+1)*width]
		}
	}
	acts, rews := steps*width, steps*(width+1)
	for i := range tr.Steps {
		tr.Steps[i].Action = at(acts + i)
		tr.Steps[i].Reward = at(rews + i)
	}
	return tr, nil
}

// read returns the next want bytes of the stream, valid until the next
// read. The buffer grows only as bytes arrive.
func (d *poolReader) read(want int) ([]byte, error) {
	buf := d.scratch[:0]
	for len(buf) < want {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(want-len(buf), max(len(buf), decodeChunk)))
		}
		got, err := io.ReadFull(d.r, buf[len(buf):min(want, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	d.scratch = buf
	return buf, nil
}

func (d *poolReader) u64() (uint64, error) {
	b, err := d.read(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *poolReader) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	if n > maxPoolString {
		return "", fmt.Errorf("string of %d bytes, bound %d", n, maxPoolString)
	}
	b, err := d.read(int(n))
	return string(b), err
}
