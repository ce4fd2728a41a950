package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// The paper amortizes profiling cost PGO-style: profile once offline,
// reuse the result across runs and program versions as long as the data
// structures and allocation sites are unchanged (§6.2). Save/Load make
// profiles durable artifacts so that workflow exists here too.

// formatVersion guards against reading artifacts from incompatible
// versions of this package.
const formatVersion = 1

type persisted struct {
	Version   int          `json:"version"`
	App       string       `json:"app"`
	TotalRefs uint64       `json:"total_refs"`
	Vars      []VarProfile `json:"vars"`
}

// Save serializes the profile as JSON.
func (p Profile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(persisted{
		Version:   formatVersion,
		App:       p.App,
		TotalRefs: p.TotalRefs,
		Vars:      p.Vars,
	})
}

// Load reads a profile previously written by Save.
func Load(r io.Reader) (Profile, error) {
	var raw persisted
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return Profile{}, fmt.Errorf("profile: decoding: %w", err)
	}
	if raw.Version != formatVersion {
		return Profile{}, fmt.Errorf("profile: format version %d, want %d", raw.Version, formatVersion)
	}
	p := Profile{App: raw.App, TotalRefs: raw.TotalRefs, Vars: raw.Vars}
	// Re-derive ordering and major flags so a hand-edited artifact
	// cannot carry an inconsistent major set.
	rank(p.Vars, p.TotalRefs)
	return p, nil
}
