package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRunSelectsExperiments(t *testing.T) {
	for _, tc := range []struct {
		args    string
		unknown string   // the id the error must name; "" means success
		tables  []string // table titles stdout must hold, in order
	}{
		{args: "-run e12", tables: []string{"== E12"}},
		{args: "-run E12,e7", tables: []string{"== E7", "== E12"}}, // index order, case-folded
		{args: "-run bogus", unknown: "bogus"},
		{args: "-run e12,bogus", unknown: "bogus"}, // was: bogus silently dropped, e12 ran
		{args: "-run e12,", unknown: ""},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var out bytes.Buffer
			err := run(strings.Fields(tc.args), &out)
			if tc.tables == nil {
				if !errors.Is(err, errUnknownID) {
					t.Fatalf("err = %v, want errUnknownID", err)
				}
				if !strings.Contains(err.Error(), `"`+tc.unknown+`"`) || !strings.Contains(err.Error(), "e1, e2,") {
					t.Errorf("error %q does not name %q and list the valid ids", err, tc.unknown)
				}
				if out.Len() != 0 {
					t.Errorf("ran before refusing:\n%s", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rest := out.String()
			for _, title := range tc.tables {
				_, after, ok := strings.Cut(rest, title)
				if !ok {
					t.Fatalf("stdout lacks %q (or out of order):\n%s", title, out.String())
				}
				rest = after
			}
			if n := strings.Count(out.String(), "== E"); n != len(tc.tables) {
				t.Errorf("%d tables printed, want %d", n, len(tc.tables))
			}
		})
	}
}
