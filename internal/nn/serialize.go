package nn

import (
	"fmt"

	"sage/internal/safeio"
)

// policyBlob is the on-disk form of a trained policy.
type policyBlob struct {
	Cfg    PolicyConfig
	Norm   Normalizer
	Params [][]float64
}

// SavePolicy writes the policy (architecture, normalizer, weights) to path
// as gzipped gob.
func SavePolicy(p *Policy, path string) error {
	blob := policyBlob{Cfg: p.Cfg, Norm: *p.Norm}
	for _, pr := range p.Params() {
		blob.Params = append(blob.Params, append([]float64(nil), pr.Data...))
	}
	return writeGob(path, &blob)
}

// LoadPolicy reconstructs a policy written by SavePolicy.
func LoadPolicy(path string) (*Policy, error) {
	var blob policyBlob
	if err := readGob(path, &blob); err != nil {
		return nil, err
	}
	p := NewPolicy(blob.Cfg)
	p.Norm = &blob.Norm
	ps := p.Params()
	if len(ps) != len(blob.Params) {
		return nil, fmt.Errorf("nn: policy blob has %d tensors, want %d", len(blob.Params), len(ps))
	}
	for i, pr := range ps {
		if len(pr.Data) != len(blob.Params[i]) {
			return nil, fmt.Errorf("nn: tensor %d size mismatch", i)
		}
		copy(pr.Data, blob.Params[i])
	}
	return p, nil
}

// LastHidden returns the activation of the network's last hidden layer for a
// forward cache — the embedding Fig. 16 visualizes with t-SNE.
func (p *Policy) LastHidden(c *PolicyCache) []float64 { return c.resOut }

// ClonePolicy returns a deep copy (used for target networks).
func ClonePolicy(p *Policy) *Policy {
	q := NewPolicy(p.Cfg)
	q.Norm = p.Norm
	CopyParams(q, p)
	return q
}

// writeGob persists v through safeio: atomic rename, checksummed payload.
func writeGob(path string, v any) error {
	if err := safeio.WriteGobGz(path, v); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

func readGob(path string, v any) error {
	if err := safeio.ReadGobGz(path, v); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	return nil
}
