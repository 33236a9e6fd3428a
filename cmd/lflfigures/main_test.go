package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunAllFigures compares -fig all with testdata/figures.golden byte for
// byte: every figure runs the real algorithms under a fixed schedule, so
// its output is the same in every run, and a change that moves one step of
// the deletion protocol shows here.
func TestRunAllFigures(t *testing.T) {
	var out bytes.Buffer
	if err := runTo(&out, []string{"-fig", "all"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-fig all differs from testdata/figures.golden:\n%s", out.Bytes())
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "9"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
