package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad drives the trace parser (compassrun's -trace files) with
// adversarial input. Invariants: Load never panics, and any trace it
// accepts comes back unchanged from Load(Save(t)). The seeds are the
// quoted, legacy unquoted and malformed lines of trace_test.go.
func FuzzLoad(f *testing.F) {
	f.Add("")
	f.Add("GET \"/dir00001/class0_3\" 420\nGET \"/index.html\" 1024\nGET \"/a/b/c\" 0\n")
	f.Add("GET \"/with space/file.html\" 7\nGET \"\" 0\nGET \"/quo\\\"ted\\\\back\" 1073741824\n")
	f.Add("GET \"/tab\\there\" 3\nGET \"/uni/𝛑\" 9\n")
	f.Add("GET /a 10\n\n\nGET /b 20\n")
	f.Add("GET /old/style 42\n")
	f.Add("POST /a ten\n")
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := Load(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load(Save(t)) failed: %v\nsaved:\n%s", err, buf.String())
		}
		if len(back) != len(tr) {
			t.Fatalf("Load(Save(t)) has %d entries, t has %d", len(back), len(tr))
		}
		for i := range tr {
			if back[i] != tr[i] {
				t.Fatalf("entry %d: %+v came back as %+v", i, tr[i], back[i])
			}
		}
	})
}
