package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite cmd/fedkbd/testdata/golden from the current code")

// TestGoldenOutput pins the command's stdout — every line is a pure
// function of the flags — as recorded when the round was still written
// out by hand in main.
func TestGoldenOutput(t *testing.T) {
	for name, args := range map[string][]string{
		"default":    nil,
		"attackers3": {"-attackers", "3"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update on a known-good tree): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("fedkbd %v diverges from its golden:\n--- want\n%s--- got\n%s", args, want, out.Bytes())
			}
		})
	}
}
