package dist

import (
	"bytes"
	"fmt"
	"hash/crc64"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
)

// Campaign is the complete, serializable description of one collection
// campaign. Coordinator and agents both expand it into the identical
// scenario grid, so cell assignments are just (scheme, env) names and a
// cell collected anywhere yields the identical trajectory. Durations are
// carried in seconds to keep the spec independent of sim.Time's
// representation.
type Campaign struct {
	Schemes    []string
	Level      string // tiny | small | full
	SetIDurSec float64
	SetIIDur   float64
	Seed       int64
	Window     int // uniform GR observation window (0 = default 10/200/1000)
}

// Validate rejects a spec whose expansion would fail on either side.
func (c Campaign) Validate() error {
	if len(c.Schemes) == 0 {
		return fmt.Errorf("dist: campaign has no schemes")
	}
	if err := cc.Validate(c.Schemes...); err != nil {
		return fmt.Errorf("dist: campaign: %w", err)
	}
	if _, err := netem.ParseLevel(c.Level); err != nil {
		return fmt.Errorf("dist: campaign: %w", err)
	}
	if c.SetIDurSec <= 0 || c.SetIIDur <= 0 {
		return fmt.Errorf("dist: campaign durations must be positive (seti=%gs setii=%gs)", c.SetIDurSec, c.SetIIDur)
	}
	if c.Window < 0 {
		return fmt.Errorf("dist: campaign window %d is negative", c.Window)
	}
	return nil
}

// GR returns the campaign's GR configuration.
func (c Campaign) GR() gr.Config {
	cfg := gr.Config{}
	if c.Window > 0 {
		cfg = cfg.WithUniformWindow(c.Window)
	}
	return cfg
}

// Scenarios expands the campaign's environment grid, in the same order
// sage-collect builds it (Set I then Set II).
func (c Campaign) Scenarios() ([]netem.Scenario, error) {
	lvl, err := netem.ParseLevel(c.Level)
	if err != nil {
		return nil, err
	}
	scens := append(
		netem.SetI(netem.SetIOptions{Level: lvl, Duration: sim.FromSeconds(c.SetIDurSec), Seed: c.Seed}),
		netem.SetII(netem.SetIIOptions{Level: lvl, Duration: sim.FromSeconds(c.SetIIDur), Seed: c.Seed})...)
	if err := netem.ValidateAll(scens); err != nil {
		return nil, err
	}
	return scens, nil
}

// Cells lists every (scheme, env) cell of the campaign, scheme-major —
// the same nested order collector.Collect dispatches in.
func (c Campaign) Cells() ([]collector.CellKey, error) {
	scens, err := c.Scenarios()
	if err != nil {
		return nil, err
	}
	cells := make([]collector.CellKey, 0, len(c.Schemes)*len(scens))
	for _, s := range c.Schemes {
		for _, sc := range scens {
			cells = append(cells, collector.CellKey{Scheme: s, Env: sc.Name})
		}
	}
	return cells, nil
}

var shardCRC = crc64.MakeTable(crc64.ECMA)

// ShardName returns the deterministic shard filename for a cell. Scheme
// and env names can contain characters a filesystem dislikes, so the
// name is a hash of the key; the cell identity inside the shard is
// authoritative and verified at resume.
func ShardName(cell collector.CellKey) string {
	h := crc64.New(shardCRC)
	h.Write([]byte(cell.Scheme))
	h.Write([]byte{0})
	h.Write([]byte(cell.Env))
	return fmt.Sprintf("shard-%016x.pool", h.Sum64())
}

// EncodeShard serializes a single-cell pool in the pool format
// (collector.EncodePool) as the payload that travels in MsgCellDone, with
// its CRC-64 for wire verification. The coordinator wraps the same bytes
// in safeio's container, so the shard file on disk is a normal pool
// artifact collector.Load reads.
func EncodeShard(pool *collector.Pool) (payload []byte, sum uint64, err error) {
	var buf bytes.Buffer
	if err := collector.EncodePool(&buf, pool); err != nil {
		return nil, 0, fmt.Errorf("dist: encode shard: %w", err)
	}
	return buf.Bytes(), crc64.Checksum(buf.Bytes(), shardCRC), nil
}

// ChecksumShard computes the wire checksum of a shard payload.
func ChecksumShard(payload []byte) uint64 { return crc64.Checksum(payload, shardCRC) }

// decodeShard decodes a shard payload back into its pool — the
// coordinator's pre-persist sanity check that the shard really carries
// the cell it claims.
func decodeShard(payload []byte) (*collector.Pool, error) {
	p, err := collector.DecodePool(payload)
	if err != nil {
		return nil, fmt.Errorf("dist: decode shard: %w", err)
	}
	return p, nil
}
