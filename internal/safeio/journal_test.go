package safeio_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sage/internal/collector"
	"sage/internal/dist"
	"sage/internal/feedback"
	"sage/internal/promote"
	"sage/internal/safeio"
	"sage/internal/telemetry"
)

// ledger is one of the repo's six journals: the file an owner keeps on
// safeio.Journal, real records of its type in commit order, and the owner's
// public opener, which folds the file into state it reports as a string.
type ledger struct {
	name string
	file string
	recs []string
	// with holds the sibling journals the same opener reads, kept intact
	// while file is damaged.
	with map[string][]string
	open func(dir string) (string, error)
}

var ingestRecs = []string{
	`{"key":{"seg":1,"off":650},"disp":"admitted","regime":"lossy","sid":1}`,
	`{"key":{"seg":1,"off":1300},"disp":"admitted","regime":"bufferbloat","sid":2}`,
	`{"key":{"seg":1,"off":1950},"disp":"admitted","regime":"flappy","sid":3}`,
	`{"key":{"seg":1,"off":2795},"disp":"quarantined","regime":"steady","sid":90,"why":"truncated episode"}`,
	`{"key":{"seg":1,"off":3459},"disp":"skipped","regime":"steady","sid":91,"why":"fallback fraction 0.75"}`,
}

// Live pool records are real but for their state vectors, cut from 69
// signals to 3 to keep the sweep short.
var livePoolRecs = []string{
	`{"key":{"seg":1,"off":650},"regime":"lossy","sid":1,"reason":"close","steps":[{"State":[20,0,2],"Action":1,"Reward":0.6400000000000001},{"State":[20.01,0,2],"Action":1.01,"Reward":0.6396801599200401}]}`,
	`{"key":{"seg":1,"off":1300},"regime":"bufferbloat","sid":2,"reason":"close","steps":[{"State":[80,0,0],"Action":1,"Reward":0.17361111111111113}],"fb":[0]}`,
	`{"key":{"seg":1,"off":1950},"regime":"flappy","sid":3,"reason":"idle","steps":[{"State":[20,0,0],"Action":1,"Reward":0.011080332409972297}]}`,
}

func openIngester(dir string) (string, error) {
	in, err := feedback.OpenIngester(feedback.IngestConfig{SpoolDir: filepath.Join(dir, "spool"), StateDir: dir})
	if err != nil {
		return "", err
	}
	defer in.Close()
	c := in.Counts()
	return fmt.Sprintf("cursor=%s ingested=%d admitted=%d quarantined=%d skipped=%d evicted=%d admitted-by-regime=%v pool=%v",
		in.Cursor(), c.Ingested, c.Admitted, c.Quarantined, c.Skipped, c.Evicted, c.ByRegime, in.PoolByRegime()), nil
}

var ledgers = []ledger{
	{
		name: "coordinator WAL", file: "wal",
		recs: []string{
			`{"t":"grant","agent":"worker","scheme":"cubic","env":"flat-24mbps-20ms-1bdp"}`,
			`{"t":"done","agent":"worker","scheme":"cubic","env":"flat-24mbps-20ms-1bdp"}`,
			`{"t":"grant","agent":"worker","scheme":"cubic","env":"flat-24mbps-20ms-4bdp"}`,
			`{"t":"fail","agent":"worker","scheme":"cubic","env":"flat-24mbps-20ms-4bdp","err":"worker panic: boom"}`,
			`{"t":"epoch","step":41}`,
			`{"t":"grant","agent":"other","scheme":"cubic","env":"flat-24mbps-80ms-1bdp"}`,
		},
		open: func(dir string) (string, error) {
			m := telemetry.NewRegistry()
			c, err := dist.NewCoordinator(dist.CoordConfig{
				Campaign: &dist.Campaign{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 3, SetIIDur: 5, Seed: 1},
				ShardDir: filepath.Join(dir, "shards"), WALPath: filepath.Join(dir, "wal"),
				Resume: true, Metrics: m,
			})
			if err != nil {
				return "", err
			}
			defer c.Shutdown()
			_, leased, _, _ := c.Tracker().Counts()
			return fmt.Sprintf("replayed=%v leased=%d epoch=%d", m.Snapshot()["dist.wal_replayed"], leased, c.LastEpoch()), nil
		},
	},
	{
		name: "registry journal", file: promote.JournalName,
		recs: []string{
			`{"t":"publish","id":"boot-b6fabfdb63","provenance":"boot","train_step":100,"fingerprint":"b6fabfdb6375a6a4"}`,
			`{"t":"promote","id":"boot-b6fabfdb63","note":"bootstrap"}`,
			`{"t":"publish","id":"trainer-42430a8985","provenance":"trainer","train_step":7,"fingerprint":"42430a898576a1b9"}`,
			`{"t":"promote","id":"trainer-42430a8985","note":"gate verdict"}`,
			`{"t":"publish","id":"named","provenance":"trainer","fingerprint":"b9b0607c837aa8f4"}`,
			`{"t":"reject","id":"named","note":"gate: regresses"}`,
			`{"t":"demote","id":"trainer-42430a8985","note":"watchdog: fallback ratio"}`,
		},
		open: func(dir string) (string, error) {
			r, err := promote.OpenRegistry(dir)
			if err != nil {
				return "", err
			}
			defer r.Close()
			return fmt.Sprintf("%+v", r.List()), nil
		},
	},
	{
		name: "ingest journal", file: "ingest.journal", recs: ingestRecs,
		with: map[string][]string{"live.pool.log": livePoolRecs}, open: openIngester,
	},
	{
		name: "live pool log", file: "live.pool.log", recs: livePoolRecs,
		with: map[string][]string{"ingest.journal": ingestRecs}, open: openIngester,
	},
	{
		name: "loop journal", file: "loop.journal",
		recs: []string{
			`{"t":"round","n":1,"admitted":3}`,
			`{"t":"published","n":1,"id":"sage-loop-b04206e108"}`,
			`{"t":"verdict","n":1,"id":"sage-loop-b04206e108","promote":true,"reason":"first candidate: no incumbent to compare against"}`,
			`{"t":"round","n":2,"admitted":6}`,
			`{"t":"published","n":2,"id":"sage-loop-5f0e1d2c3b"}`,
		},
		open: func(dir string) (string, error) {
			lp, err := feedback.OpenLoop(feedback.LoopConfig{
				SpoolDir: filepath.Join(dir, "spool"), StateDir: dir, RegistryDir: filepath.Join(dir, "registry"),
			})
			if err != nil {
				return "", err
			}
			defer lp.Close()
			n, open := lp.Round()
			return fmt.Sprintf("round=%d open=%v", n, open), nil
		},
	},
	{
		name: "collection manifest", file: "manifest",
		recs: []string{
			`{"scheme":"cubic","env":"env-a","status":"ok"}`,
			`{"scheme":"vegas","env":"env-a","status":"failed","err":"worker panic: boom"}`,
			`{"scheme":"vegas","env":"env-a","status":"ok"}`,
			`{"scheme":"bbr2","env":"env-b","status":"ok"}`,
		},
		open: func(dir string) (string, error) {
			m, seen, err := collector.OpenManifest(filepath.Join(dir, "manifest"))
			if err != nil {
				return "", err
			}
			defer m.Close()
			var cells []string
			for cell, status := range seen {
				cells = append(cells, fmt.Sprintf("%s/%s=%s", cell.Scheme, cell.Env, status))
			}
			sort.Strings(cells)
			return strings.Join(cells, " "), nil
		},
	},
}

// frame returns the bytes a journal holding recs has on disk and the offset
// just past each record, written through Journal itself.
func frame(t testing.TB, recs []string) ([]byte, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "frame")
	j, err := safeio.OpenJournal[json.RawMessage](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bounds := []int{0}
	for _, r := range recs {
		if err := j.Append(json.RawMessage(r)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, bounds[len(bounds)-1]+len(r)+10)
	}
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) != bounds[len(recs)] {
		t.Fatalf("framed %d bytes, %v; want %d", len(raw), err, bounds[len(recs)])
	}
	return raw, bounds
}

// TestJournalDamageSweep cuts each of the six ledgers at every byte and
// flips one bit in every byte, opens the damaged file through its owner
// (and so through Journal), and checks the one repair rule they share: open
// never fails, the state is the fold of the longest intact record prefix,
// the file is left holding exactly that prefix, and a second open changes
// nothing. A follower, which never repairs, must report a damaged complete
// record as ErrLogCorrupt instead of waiting on it forever.
func TestJournalDamageSweep(t *testing.T) {
	for _, l := range ledgers {
		t.Run(l.name, func(t *testing.T) {
			good, bounds := frame(t, l.recs)
			dir := t.TempDir()
			path := filepath.Join(dir, l.file)
			for name, recs := range l.with {
				raw, _ := frame(t, recs)
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// damaged opens the ledger over content and checks it against the
			// intact prefix of k records.
			var states []string
			damaged := func(what string, content []byte, k int) {
				t.Helper()
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"open", "second open"} {
					state, err := l.open(dir)
					if err != nil {
						t.Fatalf("%s: %s: %v", what, pass, err)
					}
					if k == len(states) {
						states = append(states, state)
					}
					if state != states[k] {
						t.Fatalf("%s: %s folded\n%s\nwant the fold of the first %d records\n%s", what, pass, state, k, states[k])
					}
					if left, err := os.ReadFile(path); err != nil || !bytes.Equal(left, content[:bounds[k]]) {
						t.Fatalf("%s: %s left %d bytes (%v), want the %d of the first %d records", what, pass, len(left), err, bounds[k], k)
					}
				}
			}
			for k := range bounds {
				damaged(fmt.Sprintf("intact prefix of %d records", k), good[:bounds[k]], k)
			}
			if states[0] == states[len(l.recs)] {
				t.Fatalf("the records fold to the empty state %q: the sweep would prove nothing", states[0])
			}
			k := 0
			for cut := 0; cut <= len(good); cut++ {
				if k < len(l.recs) && cut == bounds[k+1] {
					k++
				}
				damaged(fmt.Sprintf("cut at byte %d", cut), good[:cut], k)
				if cut == len(good) {
					break
				}
				flipped, harmless := flipBit(good, cut, bounds[k])
				if harmless {
					damaged(fmt.Sprintf("checksum letter at byte %d switched case", cut), flipped, len(l.recs))
				} else {
					damaged(fmt.Sprintf("bit %d of byte %d flipped", cut%8, cut), flipped, k)
				}
			}

			// The follower has folded k records when record k+1, which has a
			// successor, turns out damaged on disk.
			for k := 0; k+2 < len(bounds); k++ {
				if err := os.WriteFile(path, good[:bounds[k]], 0o644); err != nil {
					t.Fatal(err)
				}
				folded := 0
				follower, err := safeio.OpenJournal(path, func(json.RawMessage) { folded++ })
				if err != nil || folded != k {
					t.Fatalf("follower folded %d of %d records: %v", folded, k, err)
				}
				for i := bounds[k]; i < bounds[k+1]; i++ {
					flipped, harmless := flipBit(good, i, bounds[k])
					if harmless {
						continue
					}
					if err := os.WriteFile(path, flipped, 0o644); err != nil {
						t.Fatal(err)
					}
					if err := follower.Follow(func(json.RawMessage) { folded++ }); !errors.Is(err, safeio.ErrLogCorrupt) || folded != k {
						t.Fatalf("follower at record %d, bit %d of byte %d flipped: Follow = %v after folding %d more records, want ErrLogCorrupt and none", k, i%8, i, err, folded-k)
					}
				}
				if err := os.WriteFile(path, good, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := follower.Follow(func(json.RawMessage) { folded++ }); err != nil || folded != len(l.recs) {
					t.Fatalf("follower at record %d over the intact file: Follow = %v, folded %d of %d", k, err, folded, len(l.recs))
				}
				follower.Close()
			}
		})
	}
}

// flipBit returns good with bit i%8 of byte i flipped. The one flip that
// damages nothing switches the case of a letter in the checksum of the
// record starting at recStart: the frame reads its hex case-blind.
func flipBit(good []byte, i, recStart int) (flipped []byte, harmless bool) {
	flipped = append([]byte(nil), good...)
	flipped[i] ^= 1 << (i % 8)
	return flipped, i-recStart < 8 && i%8 == 5 && good[i] >= 'a'
}

// intactPrefix is the test's own reading of the record framing: the longest
// prefix of data made of complete "<crc32-hex> <payload>\n" lines whose
// checksums hold, and those lines' payloads.
func intactPrefix(data []byte) (int, [][]byte) {
	n := 0
	var payloads [][]byte
	for {
		nl := bytes.IndexByte(data[n:], '\n')
		if nl < 9 || data[n+8] != ' ' {
			return n, payloads
		}
		payload := data[n+9 : n+nl]
		if sum, err := strconv.ParseUint(string(data[n:n+8]), 16, 32); err != nil || uint32(sum) != crc32.ChecksumIEEE(payload) {
			return n, payloads
		}
		payloads = append(payloads, payload)
		n += nl + 1
	}
}

// FuzzJournalReplay: whatever bytes a journal file holds, open → fold →
// append → reopen never panics, repair keeps exactly the intact prefix, and
// no record is folded unless its checksum holds and its JSON decodes.
func FuzzJournalReplay(f *testing.F) {
	for _, l := range ledgers {
		good, bounds := frame(f, l.recs)
		f.Add(good)
		f.Add(good[:len(good)-3])
		flipped := append([]byte(nil), good...)
		flipped[bounds[1]+12] ^= 0x10
		f.Add(flipped)
		f.Add([]byte(strings.Join(l.recs, "\n") + "\n")) // the same records as plain JSONL
	}
	f.Add([]byte("2e5b0f9a not json\n00000000 \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var folded []string
		fold := func(r json.RawMessage) { folded = append(folded, string(r)) }
		j, err := safeio.OpenJournal(path, fold)
		if errors.Is(err, safeio.ErrNotJournal) {
			if left, _ := os.ReadFile(path); data[0] != '{' || !bytes.Equal(left, data) {
				t.Fatalf("refused a file starting %q, left %d of %d bytes", data[:1], len(left), len(data))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		keep, payloads := intactPrefix(data)
		var want []string
		for _, p := range payloads {
			if json.Valid(p) {
				want = append(want, string(bytes.TrimSpace(p)))
			}
		}
		if left, _ := os.ReadFile(path); !bytes.Equal(left, data[:keep]) {
			t.Fatalf("repair left %d bytes, want the %d-byte intact prefix", len(left), keep)
		}
		if fmt.Sprint(folded) != fmt.Sprint(want) {
			t.Fatalf("folded %q, want %q", folded, want)
		}
		if err := j.Append(json.RawMessage(`{"t":"fuzz"}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		folded = nil
		j2, err := safeio.OpenJournal(path, fold)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if want = append(want, `{"t":"fuzz"}`); fmt.Sprint(folded) != fmt.Sprint(want) {
			t.Fatalf("reopen folded %q, want %q", folded, want)
		}
	})
}
