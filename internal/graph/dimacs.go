package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// DIMACS shortest-path format support (.gr): the de-facto interchange
// format of the 9th DIMACS Implementation Challenge, which real
// shortest-path workloads (road networks etc.) ship in. Vertices are
// 1-based on disk and 0-based in memory.
//
//	c comment
//	p sp <n> <m>
//	a <u> <v> <w>

// WriteDIMACS writes g in DIMACS .gr format.
func WriteDIMACS(w io.Writer, g *Graph, comment string) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "c %s\n", line); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "a %d %d %d\n", e.From+1, e.To+1, e.Len); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDIMACS parses DIMACS .gr input. Arc lines beyond the declared m are
// rejected; fewer arcs than declared is an error at EOF, and declared
// sizes above MaxEdges are rejected outright.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var g *Graph
	declared, seen := -1, 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c':
			continue
		case 'p':
			if g != nil {
				return nil, fmt.Errorf("graph: duplicate problem line at %d", lineNo)
			}
			var kind string
			var n, m int
			if _, err := fmt.Sscanf(line, "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fmt.Errorf("graph: bad problem line %q: %w", line, err)
			}
			if kind != "sp" {
				return nil, fmt.Errorf("graph: unsupported DIMACS problem %q", kind)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: negative sizes in %q", line)
			}
			if n > MaxEdges || m > MaxEdges {
				return nil, fmt.Errorf("graph: sizes in %q exceed %d", line, MaxEdges)
			}
			// Arcs are appended as they are read, never pre-sized from
			// the unverified declared m.
			g = New(n)
			declared = m
		case 'a':
			if g == nil {
				return nil, fmt.Errorf("graph: arc before problem line at %d", lineNo)
			}
			var u, v int
			var w int64
			if _, err := fmt.Sscanf(line, "a %d %d %d", &u, &v, &w); err != nil {
				return nil, fmt.Errorf("graph: bad arc line %q: %w", line, err)
			}
			if u < 1 || u > g.N() || v < 1 || v > g.N() {
				return nil, fmt.Errorf("graph: arc (%d,%d) outside [1,%d]", u, v, g.N())
			}
			if w < 0 {
				return nil, fmt.Errorf("graph: negative arc length in %q", line)
			}
			seen++
			if seen > declared {
				return nil, fmt.Errorf("graph: more than %d declared arcs", declared)
			}
			g.AddEdge(u-1, v-1, w)
		default:
			return nil, fmt.Errorf("graph: unknown DIMACS line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	if seen != declared {
		return nil, fmt.Errorf("graph: %d arcs declared, %d found", declared, seen)
	}
	return g, nil
}
