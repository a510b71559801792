package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ofence/internal/ofence"
)

// literals returns the byte ranges of the decimal integer literals in C
// source src, skipping comments, string and character literals, and
// preprocessor lines.
func literals(src string) [][2]int {
	var out [][2]int
	lineStart := true // only blanks since the last newline
	// lineEnd returns the index of the newline ending i's line, or len(src).
	lineEnd := func(i int) int {
		if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
			return i + j
		}
		return len(src)
	}
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\n':
			lineStart = true
			i++
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		case lineStart && c == '#', strings.HasPrefix(src[i:], "//"):
			i = lineEnd(i)
		case strings.HasPrefix(src[i:], "/*"):
			if j := strings.Index(src[i+2:], "*/"); j >= 0 {
				i += 2 + j + 2
			} else {
				i = len(src)
			}
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(src) && src[j] != c && src[j] != '\n' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			i = j + 1
		case isIdentChar(c):
			// An identifier or a preprocessing number: letters, digits,
			// underscores and dots. Only an all-digit one is a literal.
			j, digits := i, true
			for j < len(src) && (isIdentChar(src[j]) || src[j] == '.') {
				digits = digits && src[j] >= '0' && src[j] <= '9'
				j++
			}
			if digits && c >= '0' && c <= '9' {
				out = append(out, [2]int{i, j})
			}
			i = j
		default:
			i++
		}
		lineStart = false
	}
	return out
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// changeLiteral returns src with one integer literal, chosen by rng, set to
// a different value in 1..999. ok is false when src has no literal.
func changeLiteral(rng *rand.Rand, src string) (out string, ok bool) {
	lits := literals(src)
	if len(lits) == 0 {
		return src, false
	}
	l := lits[rng.Intn(len(lits))]
	old := src[l[0]:l[1]]
	v := strconv.Itoa(rng.Intn(999) + 1)
	if v == old {
		v = strconv.Itoa(1000 + rng.Intn(999))
	}
	return src[:l[0]] + v + src[l[1]:], true
}

// restoreEvery: one edit in restoreEvery restores an earlier content of a
// file edited before. No record of how developers really edit backs this
// share; it is an assumption (see README.md).
const restoreEvery = 5

// editor produces a seeded sequence of one-file edits over a set of
// sources: one edit in restoreEvery restores an earlier content of a file
// edited before; the others change one integer literal of a file.
type editor struct {
	rng     *rand.Rand
	names   []string
	cur     map[string]string
	history map[string][]string // earlier contents of each edited file
	edited  []string            // files with a history, in first-edit order
}

func newEditor(seed int64, files []ofence.SourceFile) *editor {
	e := &editor{
		rng:     rand.New(rand.NewSource(seed)),
		cur:     make(map[string]string, len(files)),
		history: map[string][]string{},
	}
	for _, f := range files {
		e.names = append(e.names, f.Name)
		e.cur[f.Name] = f.Src
	}
	return e
}

// next returns the next edit: the file to replace, its new content, and
// whether the edit restores an earlier content.
func (e *editor) next() (name, src string, restored bool, err error) {
	if len(e.edited) > 0 && e.rng.Intn(restoreEvery) == 0 {
		name = e.edited[e.rng.Intn(len(e.edited))]
		var earlier []string
		for _, h := range e.history[name] {
			if h != e.cur[name] {
				earlier = append(earlier, h)
			}
		}
		if len(earlier) > 0 {
			return name, e.apply(name, earlier[e.rng.Intn(len(earlier))]), true, nil
		}
	}
	name, src, err = changeOne(e.rng, e.names, e.cur)
	if err != nil {
		return "", "", false, err
	}
	return name, e.apply(name, src), false, nil
}

// changeOne changes one integer literal of a file drawn by rng from names,
// whose contents are in cur, and returns the file and its new content.
func changeOne(rng *rand.Rand, names []string, cur map[string]string) (name, src string, err error) {
	for range len(names) {
		name = names[rng.Intn(len(names))]
		if src, ok := changeLiteral(rng, cur[name]); ok {
			return name, src, nil
		}
	}
	return "", "", fmt.Errorf("no integer literal found in %d tries", len(names))
}

func (e *editor) apply(name, src string) string {
	if _, ok := e.history[name]; !ok {
		e.edited = append(e.edited, name)
	}
	e.history[name] = append(e.history[name], e.cur[name])
	e.cur[name] = src
	return src
}

// sources returns every file with its current content, in the original order.
func (e *editor) sources() []ofence.SourceFile {
	out := make([]ofence.SourceFile, len(e.names))
	for i, name := range e.names {
		out[i] = ofence.SourceFile{Name: name, Src: e.cur[name]}
	}
	return out
}
