package timing

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Schema versions the calibration artifact. Bump it whenever the
// feature basis, the repetition counts, or the hinge form changes
// meaning: a loaded artifact under a different schema is refused, so a
// stale calibration can never silently predict with the wrong model
// shape.
const Schema = "timing-cal/v1"

// DefaultBudgetP95 is the held-out error budget committed into freshly
// fitted artifacts: the ceiling on the P95 of relative total-cycle
// error over the holdout grid that the benchgate calibration gate
// enforces.
const DefaultBudgetP95 = 0.05

// DefaultPath is where the committed calibration artifact lives,
// relative to the repository root.
const DefaultPath = "testdata/calibration.json"

// stageCount is the number of chain stages the model prices.
const stageCount = 5

// stageKeys are the short stable artifact names of the chain stages, in
// pusch.Stages order; per-stage model state is indexed the same way.
var stageKeys = [stageCount]string{"ofdm", "bf", "che", "ne", "mimo"}

// StageFit is one fitted hinge: the per-repetition cycle model of one
// (cluster, stage, NSC-class) combination. J0 is the wake/barrier
// plateau in cycles per repetition; Beta are the work-arm coefficients
// over the stage's feature basis (features.go), in basis order.
type StageFit struct {
	Stage string    `json:"stage"` // "ofdm", "bf", "che", "ne", "mimo"
	NSC   int       `json:"nsc"`   // NSC calibration class
	J0    float64   `json:"j0"`
	Beta  []float64 `json:"beta"`
}

// ClusterFit holds one cluster's fitted stage models, keyed by the
// full-geometry fingerprint (pusch.ArchFingerprint) so a calibration
// fitted on stock MemPool can never be evaluated on a scaled or
// otherwise edited geometry that happens to share the name.
type ClusterFit struct {
	Cluster     string     `json:"cluster"`
	Cores       int        `json:"cores"`
	Fingerprint string     `json:"fingerprint"`
	Stages      []StageFit `json:"stages"`
}

// Calibration is the versioned artifact committed at
// testdata/calibration.json: the complete coefficient set of the
// analytic timing model plus the error budget it was accepted under.
// Regenerate with `go run ./cmd/benchgate -update-calibration`
// (docs/TIMING.md documents the procedure).
type Calibration struct {
	Schema string `json:"schema"`
	// BudgetP95 is the committed ceiling on held-out P95 relative
	// total-cycle error. Keeping the budget inside the artifact means
	// the gate and the artifact can never disagree about what the
	// coefficients were accepted under.
	BudgetP95 float64      `json:"budget_p95"`
	Clusters  []ClusterFit `json:"clusters"`
}

// Write serializes the calibration as indented JSON, fields in
// declaration order, clusters and stages in fit order — deterministic,
// so refitting an unchanged tree reproduces the artifact byte for
// byte.
func (c *Calibration) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// WriteFile writes the artifact to path, creating or truncating it.
func (c *Calibration) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCalibration parses an artifact and checks its schema and budget.
func ReadCalibration(r io.Reader) (*Calibration, error) {
	var c Calibration
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("timing: decoding calibration: %w", err)
	}
	if c.Schema != Schema {
		return nil, fmt.Errorf("timing: calibration schema %q, this tree fits %q — regenerate with `go run ./cmd/benchgate -update-calibration`", c.Schema, Schema)
	}
	if !(c.BudgetP95 > 0) {
		return nil, fmt.Errorf("timing: calibration carries no positive error budget")
	}
	return &c, nil
}

// LoadCalibration reads an artifact from a file.
func LoadCalibration(path string) (*Calibration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadCalibration(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
