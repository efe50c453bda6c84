package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/castore"
	"repro/internal/detmake"
)

// The plain twin of a build: what detmake computes, written again as
// function calls over a map with none of the product's code — the
// counterpart, for make_*, of internal/baseline's goroutine twins of the
// paper suite. It is the workloads' reference: the oracle a build's tree
// digest is checked against, and the unit the gated metrics are expressed
// in. Sharing no code with the product, it cannot get faster when the
// product does, so a faster build can only lower wall_ratio.

// nativeBuild runs a shape's DAG as plain function calls over a map —
// the actions are detmake.DefaultActions' documented semantics — and
// returns the digest detmake.Result.TreeDigest must equal: the hash of
// the sorted (path, content hash) pairs of sources and outputs.
func nativeBuild(sh shape) (castore.Key, error) {
	tree := make(map[string][]byte, len(sh.sources)+sh.tasks)
	for p, b := range sh.sources {
		tree[p] = b
	}
	pending := sh.graph.Tasks()
	for len(pending) > 0 {
		var blocked []*detmake.Task
		for _, t := range pending {
			if ready(t, tree) {
				if err := nativeAction(t, tree); err != nil {
					return castore.Key{}, err
				}
			} else {
				blocked = append(blocked, t)
			}
		}
		if len(blocked) == len(pending) {
			return castore.Key{}, fmt.Errorf("plain build of %s: no task is ready", sh.name)
		}
		pending = blocked
	}
	paths := make([]string, 0, len(tree))
	for p := range tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var buf []byte
	for _, p := range paths {
		k := sha256.Sum256(tree[p])
		buf = append(append(append(buf, p...), 0), k[:]...)
	}
	return sha256.Sum256(buf), nil
}

func ready(t *detmake.Task, tree map[string][]byte) bool {
	for _, in := range t.Inputs {
		if _, ok := tree[in]; !ok {
			return false
		}
	}
	return true
}

func nativeAction(t *detmake.Task, tree map[string][]byte) error {
	switch t.Action {
	case "gen":
		tree[t.Outputs[0]] = []byte(strings.Join(t.Args, " ") + "\n")
	case "concat":
		var buf []byte
		for _, in := range t.Inputs {
			buf = append(buf, tree[in]...)
		}
		tree[t.Outputs[0]] = buf
	case "upper":
		tree[t.Outputs[0]] = []byte(strings.ToUpper(string(tree[t.Inputs[0]])))
	case "derive":
		h := sha256.New()
		for _, arg := range t.Args {
			h.Write([]byte(arg))
			h.Write([]byte{0})
		}
		for _, in := range t.Inputs {
			h.Write([]byte(in))
			h.Write([]byte{0})
			h.Write(tree[in])
		}
		tree[t.Outputs[0]] = []byte(hex.EncodeToString(h.Sum(nil)) + "\n")
	case "chunk":
		b := tree[t.Inputs[0]]
		per := len(b) / len(t.Outputs)
		for i, out := range t.Outputs {
			hi := (i + 1) * per
			if i == len(t.Outputs)-1 {
				hi = len(b)
			}
			tree[out] = b[i*per : hi]
		}
	default:
		return fmt.Errorf("plain build: no twin of action %q", t.Action)
	}
	return nil
}
