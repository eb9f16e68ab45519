package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/safeio"
	"sage/internal/sim"
)

// leaves lists every leaf of v as "path=value", floats as their bits, so
// two pools compare bitwise (NaN payloads and −0 included) and a mismatch
// names its field. Slice lengths are leaves too; nil and empty are one.
func leaves(v reflect.Value, path string, out *[]string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Slice:
		*out = append(*out, fmt.Sprintf("%s.len=%d", path, v.Len()))
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Float64:
		*out = append(*out, fmt.Sprintf("%s=%016x", path, math.Float64bits(v.Float())))
	case reflect.String:
		*out = append(*out, fmt.Sprintf("%s=%q", path, v.String()))
	case reflect.Bool:
		*out = append(*out, fmt.Sprintf("%s=%t", path, v.Bool()))
	case reflect.Int, reflect.Int64:
		*out = append(*out, fmt.Sprintf("%s=%d", path, v.Int()))
	default:
		panic("leaves: no case for " + v.Type().String() + " at " + path)
	}
}

func poolLeaves(p *Pool) []string {
	var out []string
	leaves(reflect.ValueOf(p).Elem(), "Pool", &out)
	return out
}

func requireSamePool(t *testing.T, got, want *Pool) {
	t.Helper()
	g, w := poolLeaves(got), poolLeaves(want)
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("pools differ: got %s, want %s", g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("pools differ: %d leaves, want %d", len(g), len(w))
	}
}

// specials are the float bit patterns a lossy codec would lose.
var specials = []float64{
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_0123), // quiet NaN with a payload
	math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
	math.SmallestNonzeroFloat64,
}

// fill sets every exported field under v to a distinct non-zero value,
// every slice to three elements, and cycles the floats through specials.
// A field of a kind it does not know fails the test, so a field added to
// the pool later needs a case here and in the codec.
func fill(t *testing.T, v reflect.Value, k *int) {
	*k++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), k)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			fill(t, v.Index(i), k)
		}
	case reflect.Float64:
		if *k%3 == 0 {
			v.SetFloat(specials[(*k/3)%len(specials)])
		} else {
			v.SetFloat(float64(*k) + 0.25)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *k))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*k))
	default:
		t.Fatalf("fill: no case for %s", v.Type())
	}
}

// TestPoolCodecRoundTripsEveryField: every exported field of Pool,
// Trajectory, FailedCell, gr.Step and gr.Config survives Save and Load
// bit for bit, special floats included, and each loaded state is a
// capacity-capped slice of one arena.
func TestPoolCodecRoundTripsEveryField(t *testing.T) {
	var p Pool
	k := 0
	fill(t, reflect.ValueOf(&p).Elem(), &k)
	for _, l := range poolLeaves(&p) {
		if strings.HasSuffix(l, "=0000000000000000") || strings.HasSuffix(l, "=0") || strings.HasSuffix(l, `=""`) {
			t.Fatalf("fill left a zero: %s", l)
		}
	}
	path := filepath.Join(t.TempDir(), "pool")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePool(t, got, &p)
	for _, tr := range got.Trajs {
		for i, s := range tr.Steps {
			if cap(s.State) != len(s.State) {
				t.Fatalf("step %d: state cap %d, len %d", i, cap(s.State), len(s.State))
			}
			if prev := tr.Steps[max(i-1, 0)].State; i > 0 && unsafe.Add(unsafe.Pointer(&prev[0]), 8*len(prev)) != unsafe.Pointer(&s.State[0]) {
				t.Fatalf("step %d: state is not next to step %d's in one arena", i, i-1)
			}
		}
	}
}

// TestPoolCodecZeroCounts: what has no elements decodes to nil, as gob
// decoded it.
func TestPoolCodecZeroCounts(t *testing.T) {
	p := &Pool{Trajs: []Trajectory{{Scheme: "a", Steps: []gr.Step{}}, {Scheme: "b", Steps: []gr.Step{{Action: 1}, {Action: 2}}}}}
	var buf bytes.Buffer
	if err := EncodePool(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePool(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Failed != nil || got.Trajs[0].Steps != nil || got.Trajs[1].Steps[0].State != nil {
		t.Fatalf("empty fields decode non-nil: %+v", got)
	}
	requireSamePool(t, got, p)
	empty, err := DecodePool(encodeT(t, &Pool{}))
	if err != nil || empty.Trajs != nil || empty.Failed != nil {
		t.Fatalf("empty pool decodes as %+v, %v", empty, err)
	}
}

func encodeT(t testing.TB, p *Pool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodePool(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeGobPool saves p the way every pool was saved before the pool
// format: gob inside gzip inside safeio's container.
func writeGobPool(t testing.TB, path string, p *Pool) {
	t.Helper()
	err := safeio.WriteFile(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if err := gob.NewEncoder(zw).Encode(p); err != nil {
			return err
		}
		return zw.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func twoCellPool(t testing.TB) *Pool {
	t.Helper()
	p, err := Collect(context.Background(), []string{"cubic"}, tinyScenarios()[:2], Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Failed = []FailedCell{{Scheme: "vegas", Env: "nowhere", Err: "worker panic: boom"}}
	return p
}

// TestLoadLegacyGobPool: a gob pool from before the pool format loads to
// the same content as the same pool saved now.
func TestLoadLegacyGobPool(t *testing.T) {
	p := twoCellPool(t)
	dir := t.TempDir()
	legacy, fresh := filepath.Join(dir, "legacy.pool"), filepath.Join(dir, "fresh.pool")
	writeGobPool(t, legacy, p)
	if err := p.Save(fresh); err != nil {
		t.Fatal(err)
	}
	old, err := Load(legacy)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Load(fresh)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePool(t, old, cur)
	requireSamePool(t, cur, p)
}

// TestGoldenPoolFormat pins the format: the digest of a tiny pool's saved
// payload, gunzipped (deflate's bytes are the compressor's business, the
// stream is ours), in testdata/pool-stream.golden. It moves only with the
// format version.
func TestGoldenPoolFormat(t *testing.T) {
	p := &Pool{
		GR: gr.Config{}.Fill(),
		Trajs: []Trajectory{
			{Scheme: "cubic", Env: "flat-24mbps", Score: 0.5, Steps: []gr.Step{
				{State: []float64{1, 2, 3}, Action: 1.5, Reward: -0.25},
				{State: []float64{4, math.Inf(1), math.Copysign(0, -1)}, Action: 0.5, Reward: 0.75},
			}},
			{Scheme: "vegas", Env: "step-48mbps", MultiFlow: true, Steps: []gr.Step{{Action: 2}}},
		},
		Failed: []FailedCell{{Scheme: "bbr2", Env: "flat-24mbps", Err: "worker panic: boom"}},
	}
	path := filepath.Join(t.TempDir(), "pool")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	payload, err := safeio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stream := gunzip(t, payload)
	if !bytes.HasPrefix(stream, []byte("SAGEPOOL\x01\x00\x00\x00\x00\x00\x00\x00")) {
		t.Fatalf("stream opens %q", stream[:min(16, len(stream))])
	}
	d := golden.NewDigest()
	d.Write(stream)
	golden.Check(t, "pool-stream", d.Sum())
}

func gunzip(t testing.TB, payload []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSaveRefusesRaggedTrajectory: a trajectory whose states differ in
// width has no place in the format; Save names its cell and step and
// leaves no file.
func TestSaveRefusesRaggedTrajectory(t *testing.T) {
	tr := qTraj("cubic", 8)
	tr.Steps[5].State = tr.Steps[5].State[:1]
	path := filepath.Join(t.TempDir(), "pool")
	err := (&Pool{Trajs: []Trajectory{qTraj("vegas", 4), tr}}).Save(path)
	if err == nil || !strings.Contains(err.Error(), "cubic/env") || !strings.Contains(err.Error(), "step 5") {
		t.Fatalf("Save = %v, want an error naming cubic/env step 5", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("a refused save left %s: %v", path, serr)
	}
}

// hostileStream is a pool stream whose one trajectory claims steps×width
// states and then ends.
func hostileStream(steps, width uint64) []byte {
	var b bytes.Buffer
	u := func(v uint64) {
		var w [8]byte
		for i := range w {
			w[i] = byte(v >> (8 * i))
		}
		b.Write(w[:])
	}
	b.WriteString(poolMagic)
	u(poolVersion)
	for range 7 {
		u(1) // gr.Config
	}
	u(1) // one trajectory
	u(1)
	b.WriteString("x") // scheme
	u(1)
	b.WriteString("y") // env
	b.WriteByte(0)     // MultiFlow
	u(0)               // Score
	u(steps)
	u(width)
	return b.Bytes()
}

func gzipBytes(b []byte) []byte {
	var out bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&out, gzip.BestSpeed)
	zw.Write(b)
	zw.Close()
	return out.Bytes()
}

// FuzzDecodePool feeds arbitrary bytes to DecodePool both as a payload and
// as the gunzipped stream of one. Whatever the input: no panic; an error,
// or a pool that re-encodes to a payload that decodes and re-encodes to
// the same bytes — and, for a stream in the pool format, to that very
// stream; and allocation bounded by the stream's length plus a fixed
// amount, so a count or width that lies costs what its bytes paid for.
// The hostile seeds claim 2⁴⁰ steps of width 2³¹ (an overflow refused
// before any read) and 2²⁴ of width 2¹² (a 512 GiB block that is read as
// it arrives and then ends).
func FuzzDecodePool(f *testing.F) {
	real := twoCellPool(f)
	payload := encodeT(f, real)
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy)
	gob.NewEncoder(zw).Encode(real)
	zw.Close()
	f.Add(payload)
	f.Add(legacy.Bytes())
	f.Add(payload[:len(payload)-len(payload)/3])
	f.Add(gunzip(f, payload)[:300])
	f.Add(hostileStream(1<<40, 1<<31))
	f.Add(hostileStream(1<<24, 1<<12))
	f.Add(gzipBytes(hostileStream(1<<24, 1<<12)))
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecode(t, in)
		checkDecode(t, gzipBytes(in))
	})
}

func checkDecode(t *testing.T, payload []byte) {
	// The gunzipped stream, what the decoder's allocation is charged to.
	var stream []byte
	if zr, err := gzip.NewReader(bytes.NewReader(payload)); err == nil {
		var buf bytes.Buffer
		if n, _ := io.Copy(&buf, io.LimitReader(zr, 16<<20+1)); n > 16<<20 {
			return // a bomb this test will not inflate
		}
		stream = buf.Bytes()
	}
	// The pool format's decoder pays a fixed 64 KiB chunk ahead of the
	// bytes; gob, on the legacy path, reads any message under 10 MiB in
	// one allocation, whatever its length prefix claims.
	inFormat := bytes.HasPrefix(stream, []byte(poolMagic))
	fixed := 16 << 20
	if inFormat {
		fixed = 1 << 20
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p, err := DecodePool(payload)
	runtime.ReadMemStats(&m1)
	if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(64*len(stream)+fixed); grew > bound {
		t.Fatalf("a %d-byte stream allocated %d bytes, bound %d", len(stream), grew, bound)
	}
	if err != nil {
		return
	}
	var b1 bytes.Buffer
	if err := EncodePool(&b1, p); err != nil {
		if inFormat {
			t.Fatalf("a decoded pool does not re-encode: %v", err)
		}
		return // a gob pool may hold what the format refuses (ragged states)
	}
	p2, err := DecodePool(b1.Bytes())
	if err != nil {
		t.Fatalf("a re-encoded pool does not decode: %v", err)
	}
	requireSamePool(t, p2, p)
	var b2 bytes.Buffer
	if err := EncodePool(&b2, p2); err != nil || !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("re-encoding is not a fixpoint (%v)", err)
	}
	if inFormat && !bytes.Equal(gunzip(t, b1.Bytes()), stream) {
		t.Fatal("a decoded stream re-encodes to other bytes")
	}
}

func benchPool(b *testing.B) *Pool {
	scens := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 12500 * sim.Millisecond, Seed: 1})
	p, err := Collect(context.Background(), []string{"cubic", "vegas"}, scens, Options{Parallel: 2})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPoolSave saves a collected pool of about 15 000 transitions,
// the size of the repo benchmark's collect_grid pool, through the artifact
// path: encode, compress, checksum, fsync, rename.
func BenchmarkPoolSave(b *testing.B) {
	pool := benchPool(b)
	path := filepath.Join(b.TempDir(), "pool")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Save(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFile(b, path, pool)
}

// BenchmarkPoolLoad loads the same pool back: verify, gunzip, decode.
func BenchmarkPoolLoad(b *testing.B) {
	pool := benchPool(b)
	path := filepath.Join(b.TempDir(), "pool")
	if err := pool.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFile(b, path, pool)
}

func reportFile(b *testing.B, path string, pool *Pool) {
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "file-B")
	b.ReportMetric(float64(pool.Transitions()), "transitions")
}
