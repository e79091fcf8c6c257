package urltable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"webcluster/internal/config"
	"webcluster/internal/content"
)

// Persistence: the URL table is the distributor's authoritative routing
// state. Alongside live replication to a backup (§2.3), the table can be
// checkpointed to disk so a restarted distributor resumes routing without
// replaying management history.

// persistRecord is the stable on-disk form of one entry.
type persistRecord struct {
	Path      string          `json:"path"`
	Size      int64           `json:"size"`
	Class     string          `json:"class"`
	Priority  int             `json:"priority,omitempty"`
	Pinned    bool            `json:"pinned,omitempty"`
	Hits      int64           `json:"hits,omitempty"`
	Locations []config.NodeID `json:"locations"`
}

// classFromName inverts content.Class.String().
func classFromName(name string) (content.Class, error) {
	for _, c := range content.Classes() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("urltable: unknown content class %q", name)
}

// Save writes the table as a deterministic JSON document (entries sorted
// by path).
func (t *Table) Save(w io.Writer) error {
	var records []persistRecord
	t.Walk(func(r Record) {
		records = append(records, persistRecord{
			Path:      r.Path,
			Size:      r.Size,
			Class:     r.Class.String(),
			Priority:  r.Priority,
			Pinned:    r.Pinned,
			Hits:      r.Hits,
			Locations: r.Locations,
		})
	})
	sort.Slice(records, func(i, j int) bool { return records[i].Path < records[j].Path })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		return fmt.Errorf("urltable: encoding: %w", err)
	}
	return nil
}

// Load reads a table previously written by Save, restoring entries, pins
// and hit counters.
func Load(r io.Reader) (*Table, error) {
	var records []persistRecord
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return nil, fmt.Errorf("urltable: decoding: %w", err)
	}
	t := New()
	for _, pr := range records {
		class, err := classFromName(pr.Class)
		if err != nil {
			return nil, err
		}
		obj := content.Object{
			Path:     pr.Path,
			Size:     pr.Size,
			Class:    class,
			Priority: pr.Priority,
		}
		if err := t.Insert(obj, pr.Locations...); err != nil {
			return nil, fmt.Errorf("urltable: restoring %s: %w", pr.Path, err)
		}
		if pr.Pinned {
			if err := t.SetPinned(pr.Path, true); err != nil {
				return nil, err
			}
		}
		if pr.Hits > 0 {
			t.restoreHits(pr.Path, pr.Hits)
		}
	}
	return t, nil
}

// restoreHits sets a restored entry's hit counter. Counters are shared
// across entry copies, so storing through the current snapshot is enough.
func (t *Table) restoreHits(path string, hits int64) {
	segs, err := splitPath(path)
	if err != nil {
		return
	}
	if e := findSegs(t.root.Load(), segs); e != nil {
		e.hits.Store(hits)
	}
}

// SaveFile checkpoints the table to a file.
func (t *Table) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("urltable: creating %s: %w", path, err)
	}
	if err := t.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("urltable: closing %s: %w", path, err)
	}
	return nil
}

// LoadFile restores a table from a file written by SaveFile.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("urltable: opening %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	return Load(f)
}
