package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// maxDepth bounds nesting; a valid scenario nests six levels deep.
const maxDepth = 64

// Parse decodes a scenario file: plain JSON, plus full-line `//` comments.
// Unknown fields, duplicate keys and trailing data are errors, so a typo'd
// knob fails loudly instead of silently running the default. Keys match
// struct fields case-insensitively, as encoding/json matches them, and
// duplicates are detected under the same rule. Parse never panics.
func Parse(data []byte) (*Scenario, error) {
	data = blankComments(data)
	if err := checkKeys(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	sc := &Scenario{Seed: 1}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	for i := range sc.Tenants {
		for j := range sc.Tenants[i].Mix.Sizes {
			if s := &sc.Tenants[i].Mix.Sizes[j]; s.Weight == 0 {
				s.Weight = 1
			}
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// blankComments overwrites every line whose first non-blank characters are
// `//` with spaces. Blanking rather than deleting keeps byte offsets, and
// so the line numbers in syntax errors, pointing into the original file.
func blankComments(data []byte) []byte {
	out := bytes.Clone(data)
	for start := 0; start < len(out); {
		end := bytes.IndexByte(out[start:], '\n')
		if end < 0 {
			end = len(out)
		} else {
			end += start
		}
		if bytes.HasPrefix(bytes.TrimLeft(out[start:end], " \t\r"), []byte("//")) {
			for i := start; i < end; i++ {
				out[i] = ' '
			}
		}
		start = end + 1
	}
	return out
}

// frame is one open object or array in checkKeys' walk.
type frame struct {
	path    string          // "tenants[0].arrival"; "" at the top level
	obj     bool            // object (else array)
	wantKey bool            // objects: the next token is a key or '}'
	key     string          // objects: the key whose value is being read
	folded  map[string]bool // objects: foldKey of every key seen so far
	idx     int             // arrays: index of the element being read
}

// child returns the path of the value frame f is reading.
func (f *frame) child() string {
	if !f.obj {
		return fmt.Sprintf("%s[%d]", f.path, f.idx)
	}
	if f.path == "" {
		return f.key
	}
	return f.path + "." + f.key
}

// foldKey maps keys to one string exactly when strings.EqualFold — the
// rule encoding/json matches keys to fields by — calls them equal: each
// rune becomes the smallest rune of its Unicode simple-folding orbit.
func foldKey(k string) string {
	return strings.Map(func(r rune) rune {
		m := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			m = min(m, f)
		}
		return m
	}, k)
}

// checkKeys walks the single top-level JSON value in data and rejects
// syntax errors, a non-object top level, excessive nesting, trailing data,
// and duplicate keys under case folding, because encoding/json would
// otherwise fill one field from both "name" and "NAME" and keep whichever
// came last.
func checkKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return syntaxErr(data, err)
		}
		if len(stack) == 0 && tok != json.Delim('{') {
			return errors.New("scenario: top level must be an object")
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if k, ok := tok.(string); ok {
				top := &stack[n-1]
				folded := foldKey(k)
				if top.folded[folded] {
					where := top.path
					if where == "" {
						where = "top level"
					}
					return fmt.Errorf("scenario: %s: duplicate key %q (keys match case-insensitively)", where, k)
				}
				top.folded[folded] = true
				top.key, top.wantKey = k, false
				continue
			}
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			if len(stack) == maxDepth {
				return fmt.Errorf("scenario: nesting deeper than %d levels", maxDepth)
			}
			path := ""
			if n := len(stack); n > 0 {
				path = stack[n-1].child()
			}
			f := frame{path: path}
			if tok == json.Delim('{') {
				f.obj, f.wantKey, f.folded = true, true, map[string]bool{}
			}
			stack = append(stack, f)
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value just ended: advance the enclosing container.
		if len(stack) == 0 {
			break
		}
		if top := &stack[len(stack)-1]; top.obj {
			top.wantKey = true
		} else {
			top.idx++
		}
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("scenario: trailing data after byte %d", dec.InputOffset())
	}
	return nil
}

// syntaxErr reports a tokenizer error with the line it points at.
func syntaxErr(data []byte, err error) error {
	var se *json.SyntaxError
	switch {
	case errors.As(err, &se):
		line := 1 + bytes.Count(data[:min(int(se.Offset), len(data))], []byte("\n"))
		return fmt.Errorf("scenario: line %d: %w", line, err)
	case err == io.EOF:
		return errors.New("scenario: unexpected end of input")
	}
	return fmt.Errorf("scenario: %w", err)
}
