package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/safeio"
)

// testBlob is a small, valid model blob for cfg's flags, with a fitted
// normalizer, over the first cfg.InDim GR signals (all of them when 0).
func testBlob(cfg nn.PolicyConfig) modelBlob {
	if cfg.InDim == 0 {
		cfg.InDim = gr.StateDim
	}
	cfg.Enc, cfg.Hidden, cfg.Seed = 8, 4, 3
	pol := nn.NewPolicy(cfg)
	rng := rand.New(rand.NewSource(1))
	var fit [][]float64
	for i := 0; i < 8; i++ {
		x := make([]float64, cfg.InDim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		fit = append(fit, x)
	}
	return modelBlob{Cfg: pol.Cfg, Norm: *nn.FitNormalizer(fit), Params: nn.DumpParams(pol), Mask: gr.MaskFull()[:cfg.InDim], GR: gr.Config{}.Fill()}
}

// writeBlobPayload writes payload as the gzipped gob inside a valid
// container at path, as Save would.
func writeBlobPayload(t testing.TB, path string, payload []byte) {
	t.Helper()
	err := safeio.WriteFile(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if _, err := zw.Write(payload); err != nil {
			return err
		}
		return zw.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blobCase spoils a valid blob; want is a word of the error LoadModel must
// return for it.
type blobCase struct {
	spoil func(b *modelBlob)
	want  string
}

// malformedBlobs are the blobs LoadModel must refuse: each would make
// NewPolicy panic, LoadParams fail, or the first step index out of range.
func malformedBlobs() map[string]blobCase {
	return map[string]blobCase{
		"enc width negative":        {func(b *modelBlob) { b.Cfg.Enc = -8 }, "widths"},
		"hidden width negative":     {func(b *modelBlob) { b.Cfg.Hidden = -1 }, "widths"},
		"input width zero":          {func(b *modelBlob) { b.Cfg.InDim, b.Mask = 0, []int{} }, "widths"},
		"k negative":                {func(b *modelBlob) { b.Cfg.K = -3 }, "widths"},
		"3k past int":               {func(b *modelBlob) { b.Cfg.K = 1<<62 + 1 }, "widths"},
		"res blocks negative":       {func(b *modelBlob) { b.Cfg.ResBlocks = -1 }, "widths"},
		"res blocks past payload":   {func(b *modelBlob) { b.Cfg.ResBlocks = 1 << 40 }, "tensor"},
		"tensor missing":            {func(b *modelBlob) { b.Params = b.Params[:len(b.Params)-1] }, "tensors"},
		"tensor extra":              {func(b *modelBlob) { b.Params = append(b.Params, []float64{1}) }, "tensors"},
		"tensor short":              {func(b *modelBlob) { b.Params[3] = b.Params[3][1:] }, "tensor 3"},
		"enc width not the tensors": {func(b *modelBlob) { b.Cfg.Enc = 16 }, "tensor 0"},
		"config without a gru":      {func(b *modelBlob) { b.Cfg.NoGRU = true }, "tensor 4"},
		"normalizer too short":      {func(b *modelBlob) { b.Norm.Mean, b.Norm.Std = b.Norm.Mean[:10], b.Norm.Std[:10] }, "normalizer"},
		"normalizer std missing":    {func(b *modelBlob) { b.Norm.Std = nil }, "normalizer"},
		"mask too short":            {func(b *modelBlob) { b.Mask = b.Mask[:10] }, "mask"},
		"nil mask, narrow input":    {func(b *modelBlob) { *b = testBlob(nn.PolicyConfig{InDim: 3}); b.Mask = nil }, "mask"},
		"mask index past state":     {func(b *modelBlob) { b.Mask[5] = 9999 }, "mask index"},
		"mask index negative":       {func(b *modelBlob) { b.Mask[0] = -1 }, "mask index"},
	}
}

// TestLoadModelRefusesMalformedBlobs: every architecture loads — which also
// holds LoadModel's shape check to NewPolicy's layout — and every malformed
// blob returns an error naming what is wrong, never a panic.
func TestLoadModelRefusesMalformedBlobs(t *testing.T) {
	dir := t.TempDir()
	nilMask := testBlob(nn.PolicyConfig{})
	nilMask.Mask = nil
	for name, blob := range map[string]modelBlob{
		"full":          testBlob(nn.PolicyConfig{}),
		"noGRU":         testBlob(nn.PolicyConfig{NoGRU: true}),
		"noEncoder":     testBlob(nn.PolicyConfig{NoEncoder: true}),
		"k1":            testBlob(nn.PolicyConfig{K: 1, ResBlocks: 1}),
		"deep":          testBlob(nn.PolicyConfig{ResBlocks: 3}),
		"narrow":        testBlob(nn.PolicyConfig{InDim: 3}),
		"nil mask":      nilMask,
		"no normalizer": {Cfg: nilMask.Cfg, Params: nilMask.Params},
	} {
		path := filepath.Join(dir, "good")
		writeBlobPayload(t, path, gobBytes(t, &blob))
		if _, err := LoadModel(path); err != nil {
			t.Errorf("valid %s blob: %v", name, err)
		}
	}
	for name, tc := range malformedBlobs() {
		t.Run(name, func(t *testing.T) {
			blob := testBlob(nn.PolicyConfig{})
			tc.spoil(&blob)
			path := filepath.Join(dir, "bad")
			writeBlobPayload(t, path, gobBytes(t, &blob))
			m, err := LoadModel(path)
			if err == nil {
				t.Fatalf("loaded a model of config %+v", m.Policy.Cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the %s", err, tc.want)
			}
		})
	}
}

// FuzzLoadModel feeds arbitrary bytes to LoadModel as the gob payload of a
// valid container: it must never panic, and a model it returns must save
// and load back equal.
func FuzzLoadModel(f *testing.F) {
	for _, cfg := range []nn.PolicyConfig{{}, {NoGRU: true}, {NoEncoder: true, K: 1}} {
		blob := testBlob(cfg)
		f.Add(gobBytes(f, &blob))
	}
	for _, tc := range malformedBlobs() {
		blob := testBlob(nn.PolicyConfig{})
		tc.spoil(&blob)
		f.Add(gobBytes(f, &blob))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		writeBlobPayload(t, filepath.Join(dir, "in"), payload)
		m, err := LoadModel(filepath.Join(dir, "in"))
		if err != nil {
			return
		}
		if err := m.Save(filepath.Join(dir, "out")); err != nil {
			t.Fatal(err)
		}
		back, err := LoadModel(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		if a, b := gobBytes(t, m.blob()), gobBytes(t, back.blob()); !bytes.Equal(a, b) {
			t.Fatal("the model loaded back differs from the one saved")
		}
	})
}
