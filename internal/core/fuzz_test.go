package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chainJSON is a tree whose first child nests depth internal nodes deep, every
// leaf's whisker left empty: the smallest JSON for its depth.
func chainJSON(depth int) []byte {
	const leaf = `{"leaf":true,"whisker":{}}`
	var b bytes.Buffer
	for i := 0; i < depth; i++ {
		b.WriteString(`{"leaf":false,"split":{},"children":[`)
	}
	b.WriteString(leaf)
	for i := 0; i < depth; i++ {
		b.WriteString(strings.Repeat(","+leaf, 7))
		b.WriteString(`]}`)
	}
	return b.Bytes()
}

// TestWhiskerTreeJSONDepthBound pins the one break of FuzzWhiskerTreeJSON's
// contract known, too large for the fuzzer to reach by mutation: JSON that
// omits the leaves' domains nests less deeply than the tree's own encoding, so
// a chain 4 999 levels deep was accepted and then could not be marshaled.
// Trees deeper than maxTreeDepth are rejected with an error instead.
func TestWhiskerTreeJSONDepthBound(t *testing.T) {
	var tree WhiskerTree
	if err := json.Unmarshal(chainJSON(maxTreeDepth), &tree); err != nil {
		t.Fatalf("tree %d levels deep rejected: %v", maxTreeDepth, err)
	}
	if _, err := json.Marshal(&tree); err != nil {
		t.Fatalf("tree %d levels deep does not marshal: %v", maxTreeDepth, err)
	}
	for _, depth := range []int{maxTreeDepth + 1, 4999} {
		if err := json.Unmarshal(chainJSON(depth), &tree); err == nil || !strings.Contains(err.Error(), "deeper") {
			t.Errorf("tree %d levels deep: err = %v, want the depth bound", depth, err)
		}
	}
}

// FuzzWhiskerTreeJSON holds the RemyCC table loader to its boundary contract:
// arbitrary bytes are either rejected with an error or yield a tree that
// marshals, is accepted again, and marshals to the same bytes — and on which
// Lookup and LookupHint answer at every corner of every rule's domain, of the
// root domain and just outside it, without panicking. The shipped tables seed
// the corpus.
func FuzzWhiskerTreeJSON(f *testing.F) {
	assets, err := filepath.Glob(filepath.Join("..", "..", "assets", "remycc_*.json"))
	if err != nil || len(assets) == 0 {
		f.Fatalf("no RemyCC assets to seed from (%v)", err)
	}
	for _, path := range assets {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"leaf":true,"whisker":{}}`))
	f.Add([]byte(`{"leaf":false,"split":{},"children":[null,null,null,null,null,null,null,null]}`))
	f.Add(chainJSON(3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tree WhiskerTree
		if err := json.Unmarshal(data, &tree); err != nil {
			return
		}
		first, err := json.Marshal(&tree)
		if err != nil {
			t.Fatalf("accepted tree does not marshal: %v", err)
		}
		var back WhiskerTree
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("accepted tree's own JSON is rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-read tree does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal is not a fixed point:\n%s\n%s", first, second)
		}

		domains := []MemoryRange{tree.domain, {Lower: tree.domain.Lower.WithAxis(0, tree.domain.Lower.AckEWMA-1), Upper: tree.domain.Upper.WithAxis(2, tree.domain.Upper.RTTRatio+1)}}
		for i := 0; i < tree.NumWhiskers() && i < 256; i++ {
			domains = append(domains, tree.whiskers[i].Domain)
		}
		for _, d := range domains {
			for c := 0; c < 8; c++ {
				var m Memory
				for axis := 0; axis < 3; axis++ {
					v := d.Lower.Axis(axis)
					if c&(1<<axis) != 0 {
						v = d.Upper.Axis(axis)
					}
					m = m.WithAxis(axis, v)
				}
				idx, _ := tree.Lookup(m)
				if idx < 0 || idx >= tree.NumWhiskers() {
					t.Fatalf("Lookup(%v) = rule %d of %d", m, idx, tree.NumWhiskers())
				}
				for _, hint := range []int{-1, 0, idx, tree.NumWhiskers() - 1, tree.NumWhiskers()} {
					if h, _ := tree.LookupHint(m, hint); h < 0 || h >= tree.NumWhiskers() {
						t.Fatalf("LookupHint(%v, %d) = rule %d of %d", m, hint, h, tree.NumWhiskers())
					}
				}
			}
		}
	})
}
