package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/pusch"
	"repro/internal/sched"
)

// CellSpec is the JSON form of one cell in a -cell-config file: a
// sparse override of the fleet's default cell. Empty or zero fields
// inherit the default, so a heterogeneous deployment only spells out
// what differs per cell.
type CellSpec struct {
	Name string `json:"name,omitempty"`
	// Cluster names a stock geometry ("mempool", "terapool").
	Cluster string `json:"cluster,omitempty"`
	// Layout is a layout name ("sequential", "pipe", "pipe/f64/b32/d64").
	Layout string `json:"layout,omitempty"`
	// Timing is a timing-mode name ("cycle-accurate", "analytic").
	Timing string `json:"timing,omitempty"`
	// Servers and Queue follow Cell: 0 inherits the default cell's,
	// negative Queue means no queue.
	Servers int `json:"servers,omitempty"`
	Queue   int `json:"queue,omitempty"`
}

// Cell materializes the spec over the fleet's default cell.
func (sp CellSpec) Cell(def Cell) (Cell, error) {
	c := def
	if sp.Name != "" {
		c.Name = sp.Name
	}
	if sp.Cluster != "" {
		cluster, err := sched.ParseCluster(sp.Cluster)
		if err != nil {
			return Cell{}, err
		}
		c.Cluster = cluster
	}
	if sp.Layout != "" {
		cluster := c.Cluster
		if cluster == nil {
			cluster = arch.MemPool()
		}
		layout, err := pusch.ParseLayout(sp.Layout, cluster)
		if err != nil {
			return Cell{}, err
		}
		c.Layout = layout
	} else if sp.Cluster != "" {
		// The default cell's split was resolved against its own cluster.
		c.Layout = c.Layout.ForCluster(c.Cluster)
	}
	if sp.Timing != "" {
		mode, err := pusch.ParseTimingMode(sp.Timing)
		if err != nil {
			return Cell{}, err
		}
		c.Timing = mode
	}
	if sp.Servers != 0 {
		c.Servers = sp.Servers
	}
	if sp.Queue != 0 {
		c.QueueDepth = sp.Queue
	}
	return c, nil
}

// ReadCells parses a -cell-config stream — a JSON array of CellSpec —
// into cells, each materialized over the default cell.
func ReadCells(r io.Reader, def Cell) ([]Cell, error) {
	var specs []CellSpec
	dec := json.NewDecoder(r)
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("fleet: decoding cell config: %w", err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: cell config defines no cells")
	}
	cells := make([]Cell, len(specs))
	for i, sp := range specs {
		c, err := sp.Cell(def)
		if err != nil {
			return nil, fmt.Errorf("fleet: cell %d: %w", i, err)
		}
		cells[i] = c
	}
	return cells, nil
}

// LoadCells reads a -cell-config file.
func LoadCells(path string, def Cell) ([]Cell, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cells, err := ReadCells(f, def)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cells, nil
}

// Homogeneous is an n-cell deployment of identical cells — the -cells
// flag's fleet, one serving class, N queues.
func Homogeneous(n int, def Cell) []Cell {
	if n < 1 {
		n = 1
	}
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = def
	}
	return cells
}
