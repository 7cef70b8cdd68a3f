package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

// wireResult is the fixed specimen the golden file pins.
func wireResult() Result {
	return Result{
		ID:         "fig5",
		Title:      "STREAM triad bandwidth vs threads",
		Index:      3,
		Wall:       1500 * time.Microsecond,
		Bytes:      388,
		Mallocs:    1234,
		AllocBytes: 56789,
		Err:        errors.New("boom"),
	}
}

// The Result wire encoding is pinned byte-for-byte: maiad cache entries
// and HTTP responses both speak this format, so any
// unintended field rename/retype surfaces here as a golden diff (and an
// intended one must bump ResultSchemaVersion alongside the golden).
func TestResultWireGoldenEncode(t *testing.T) {
	got, err := json.MarshalIndent(wireResult().Wire(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("testdata/result_wire.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Result wire encoding drifted:\n got: %s\nwant: %s", got, want)
	}
}

// Decoding the golden bytes recovers the specimen (modulo Err, which
// never crosses the wire — its flattened Error string does).
func TestResultWireGoldenDecode(t *testing.T) {
	data, err := os.ReadFile("testdata/result_wire.json")
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := wireResult().Wire()
	want.Err = nil
	if got != want {
		t.Errorf("decoded result = %+v\nwant %+v", got, want)
	}
	if got.SchemaVersion != ResultSchemaVersion {
		t.Errorf("golden schema version %d != current %d", got.SchemaVersion, ResultSchemaVersion)
	}
}

// Wire stamps the version and flattens the error without touching the
// original; a clean result stays error-free on the wire.
func TestResultWire(t *testing.T) {
	r := Result{ID: "x", Err: errors.New("bad")}
	w := r.Wire()
	if w.SchemaVersion != ResultSchemaVersion || w.Error != "bad" {
		t.Errorf("Wire() = %+v", w)
	}
	if r.SchemaVersion != 0 || r.Error != "" {
		t.Errorf("Wire mutated its receiver: %+v", r)
	}
	if clean := (Result{ID: "y"}).Wire(); clean.Error != "" {
		t.Errorf("clean result grew an error: %+v", clean)
	}
}
