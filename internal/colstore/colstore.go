// Package colstore is a persistent compressed columnar table format: the
// disk-backed storage layer that lets queries read real compressed bytes,
// prune segments by zone map and decode per segment, rather than scan
// synthetic in-RAM slices. A table is a directory holding one file per column plus a JSON
// manifest. Each column file is a sequence of independently encoded segments
// (fixed row count, defaulting to 64k rows) whose compression scheme is
// chosen per segment by internal/compress's analyzer, followed by a footer
// of per-segment zone maps (min/max, null count, distinct estimate) that
// scan pruning reads without touching the data.
//
// Layout of <column>.col:
//
//	"ADVMCOL1"                       8-byte magic
//	segment 0 payload                encoding depends on column kind
//	segment 1 payload
//	...
//	footer:
//	  u32 segment count
//	  per segment: u32 rows, u64 offset, u64 length, u8 scheme,
//	               i64 min, i64 max, u32 nulls, u32 distinct
//	u64 footer offset
//	"ADVMCOL1"                       trailing magic
//
// Segment payloads: int64 columns store one self-delimiting compress.Block;
// float64 columns store the same over math.Float64bits images (bit-exact
// round-trip); string columns store a local dictionary (u32 count, then
// uvarint-length-prefixed bytes per entry) followed by a compress.Block of
// dictionary codes. Readers memory-map the files on Linux (falling back to
// a buffered read elsewhere) and decode lazily, one segment at a time, so
// scans integrate with the engine's chunk-at-a-time operators without ever
// materializing a full column.
package colstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/vector"
)

// ErrCorrupt is wrapped by every failure caused by malformed on-disk state
// (truncated files, bad magic, inconsistent footers). I/O errors pass
// through unwrapped, so callers can distinguish "regenerate" from "retry".
var ErrCorrupt = errors.New("colstore: corrupt table")

const (
	magic = "ADVMCOL1"
	// DefaultSegmentRows is the default rows per segment: large enough that
	// zone maps stay cheap (a few dozen entries per SF-1 column), small
	// enough that skipping one prunes real work. It is a multiple of the
	// morsel length, so segment boundaries align with dispatch boundaries.
	DefaultSegmentRows = 65536
	manifestName       = "manifest.json"
	// segMetaBytes is the fixed encoded size of one footer entry.
	segMetaBytes = 4 + 8 + 8 + 1 + 8 + 8 + 4 + 4
)

// segMeta is one segment's footer entry: location plus zone map.
type segMeta struct {
	rows     int
	off, len uint64
	scheme   uint8
	min, max int64 // float columns store math.Float64bits images
	nulls    uint32
	distinct uint32
}

// manifest is the table-level metadata file.
type manifest struct {
	Version     int           `json:"version"`
	Rows        int           `json:"rows"`
	SegmentRows int           `json:"segment_rows"`
	Columns     []manifestCol `json:"columns"`
}

type manifestCol struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// kindNames maps the supported column kinds onto manifest strings.
var kindNames = map[vector.Kind]string{
	vector.I64: "i64",
	vector.F64: "f64",
	vector.Str: "str",
}

func kindFromName(s string) (vector.Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unsupported column kind %q", ErrCorrupt, s)
}

// columnFile returns the file name for a column. Column names in this
// codebase are identifier-like; anything path-hostile is rejected by the
// writer.
func columnFile(dir, name string) string {
	return filepath.Join(dir, name+".col")
}

func validColumnName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		ok := r == '_' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// writeFileAtomic writes data to path via a temp file + rename, so readers
// never observe a half-written column or manifest.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readManifest loads and validates the manifest of a table directory.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("%w: manifest version %d", ErrCorrupt, m.Version)
	}
	if m.Rows < 0 || m.SegmentRows <= 0 || len(m.Columns) == 0 {
		return nil, fmt.Errorf("%w: manifest rows=%d segment_rows=%d columns=%d",
			ErrCorrupt, m.Rows, m.SegmentRows, len(m.Columns))
	}
	return &m, nil
}
