package main

import (
	"bytes"
	"os"
	"testing"
)

// TestCheckedInKernelsMatchGenerator fails when ../unpack_gen.go is not
// what this program writes: an edit to either side without `go generate
// ./internal/bitio`.
func TestCheckedInKernelsMatchGenerator(t *testing.T) {
	want, err := source()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../unpack_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/bitio/unpack_gen.go differs from the generator's output; run go generate ./internal/bitio")
	}
}
