package bench

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke-run every experiment at tiny scale: the harness must complete and
// produce non-empty, well-formed rows. Shape assertions that are robust at
// tiny scale are checked inline; full-scale runs print each experiment's
// expected paper shape in its Notes (see registry.go for the index).
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(Options{Scale: 0.05})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Errorf("result ID = %q", res.ID)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range res.Rows {
				if row.Series == "" || row.XLabel == "" || row.Unit == "" {
					t.Errorf("malformed row: %+v", row)
				}
				if row.Value < 0 {
					t.Errorf("negative metric: %+v", row)
				}
			}
			var buf bytes.Buffer
			res.Print(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("Print lost the experiment ID")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("E1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestResultPrintGroupsSeries(t *testing.T) {
	r := &Result{ID: "EX", Title: "t"}
	r.Add("b", 2, "x=2", 1, "MB/s")
	r.Add("a", 1, "x=1", 2, "MB/s")
	r.Add("b", 1, "x=1", 3, "MB/s")
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	// Series appear in first-seen order; rows within a series sorted by X.
	bIdx := strings.Index(out, "series b")
	aIdx := strings.Index(out, "series a")
	if bIdx < 0 || aIdx < 0 || bIdx > aIdx {
		t.Errorf("series order wrong:\n%s", out)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.1}
	if o.scaleInt(100) != 10 {
		t.Errorf("scaleInt = %d", o.scaleInt(100))
	}
	if o.scaleInt(1) != 1 {
		t.Errorf("scaleInt floor broken")
	}
	if o.scaleU64(1000, 200) != 200 {
		t.Errorf("scaleU64 floor broken")
	}
	var zero Options
	if zero.scale() != 1 {
		t.Errorf("default scale = %v", zero.scale())
	}
}
