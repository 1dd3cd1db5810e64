package driver

// Per-package persistence for function summaries, the analogue of the
// compiler's export data for interprocedural facts: `afvet ./...`
// summarizes the whole module bottom-up and persists each package's
// facts; a later load whose target merely *depends* on those packages
// (an analysistest fixture importing repro/internal/sim, say) reads the
// summaries back instead of re-typechecking the dependency's sources.
//
// A summary is valid only for the exact inputs it was computed from, so
// the cache key hashes the fact-format version, the package's source
// bytes, and the hashes of its module-internal dependencies' summaries —
// a change anywhere below a package invalidates everything above it,
// exactly like export data.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// factsVersion invalidates every persisted summary when the fact schema
// or its computation changes.
const factsVersion = "afvet-facts-v3"

// factsCacheDir returns the summary cache directory, creating it.
// Resolution order: $AFVET_FACTS_CACHE, the user cache dir, TempDir.
func factsCacheDir() (string, error) {
	dir := os.Getenv("AFVET_FACTS_CACHE")
	if dir == "" {
		if base, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(base, "afvet-facts")
		} else {
			dir = filepath.Join(os.TempDir(), "afvet-facts")
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// factsHash computes the cache key for a package: version, import path,
// every source file's name and content, and the dependency summary
// hashes (sorted by path for stability).
func factsHash(importPath, dir string, goFiles []string, deps map[string]string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", factsVersion, importPath)
	files := append([]string(nil), goFiles...)
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s %d\n", f, len(b))
		h.Write(b)
	}
	paths := make([]string, 0, len(deps))
	for p := range deps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "dep %s %s\n", p, deps[p])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// loadCachedFacts returns the persisted summary for hash, or nil.
func loadCachedFacts(hash string) *PkgFacts {
	dir, err := factsCacheDir()
	if err != nil {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(dir, hash+".json"))
	if err != nil {
		return nil
	}
	var pf PkgFacts
	if err := json.Unmarshal(b, &pf); err != nil || pf.Hash != hash {
		return nil
	}
	return &pf
}

// storeFacts persists pf under its hash, atomically (temp file + rename)
// so concurrent afvet runs never observe a torn summary.
func storeFacts(pf *PkgFacts) {
	dir, err := factsCacheDir()
	if err != nil {
		return
	}
	b, err := json.MarshalIndent(pf, "", "\t")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, pf.Hash+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, filepath.Join(dir, pf.Hash+".json")); err != nil {
		os.Remove(name)
	}
}
