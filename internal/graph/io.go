package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteEdgeList writes g in a plain text format:
//
//	n m
//	u v len        (one line per edge)
//
// Lines starting with '#' are comments on read. The format is the loading
// interface the paper charges O(m) time for ("the time required to load G
// into the SNA").
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.From, e.To, e.Len); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Header values
// above MaxEdges are rejected.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	var n, m int
	if _, err := fmt.Sscanf(line, "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %w", line, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative header values %d %d", n, m)
	}
	if n > MaxEdges || m > MaxEdges {
		return nil, fmt.Errorf("graph: header values %d %d exceed %d", n, m, MaxEdges)
	}
	// Edges are appended as they are read, never pre-sized from the
	// unverified header m.
	g := New(n)
	for i := 0; i < m; i++ {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d of %d: %w", i, m, err)
		}
		var u, v int
		var w int64
		if _, err := fmt.Sscanf(line, "%d %d %d", &u, &v, &w); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if w < 0 {
			return nil, fmt.Errorf("graph: negative length %d on edge (%d,%d)", w, u, v)
		}
		g.AddEdge(u, v, w)
	}
	return g, nil
}

func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
