// Package scenario is the declarative experiment DSL: a YAML file
// declares a fleet of guests, the schemes to compare, a workload, an
// optional timeline of timed events (balloon actions, workload phases,
// fault-plan arming, migration probes) and assertions over the resulting
// metrics. Parsing is strict — unknown fields, duplicate keys, tabs in
// indentation and out-of-range values are rejected with line/column
// positions — and the parsed Scenario compiles onto the experiment
// machinery the hand-coded figures use (see internal/experiment). The
// checked-in files for fig3, fig9, fig14 and fleetN are those registry
// entries; they have no Go counterpart.
//
// The package owns the scheme vocabulary (Scheme, the paper's five
// configurations), and the decoder turns every name a file spells into
// the type that runs it: schemes, swap backends and policies
// (internal/swapback), cluster packings and remediations
// (internal/cluster). A name is parsed once, here.
//
// This file is the YAML-subset parser. The repository is stdlib-only, so
// rather than importing a YAML library it implements the small block
// subset the schema needs: nested mappings, block sequences ("- item",
// including inline mappings on the dash line), flow sequences of scalars
// ("[a, b]"), single- and double-quoted scalars, and comments. Anchors,
// aliases, multi-document streams, flow mappings and block scalars are
// deliberately unsupported; the parser reports them as errors instead of
// guessing.
package scenario

import (
	"fmt"
	"strings"
)

// ParseError is a positioned scenario error. File is filled by Load.
type ParseError struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("line %d, col %d: %s", e.Line, e.Col, e.Msg)
}

// pos is a 1-based source position.
type pos struct {
	line, col int
}

func errAt(p pos, format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

type nodeKind uint8

const (
	scalarNode nodeKind = iota
	mapNode
	seqNode
)

func (k nodeKind) String() string {
	switch k {
	case scalarNode:
		return "scalar"
	case mapNode:
		return "mapping"
	default:
		return "sequence"
	}
}

// node is one parsed YAML value.
type node struct {
	pos
	kind   nodeKind
	scalar string
	quoted bool // scalar came quoted: always a string, never a number/bool
	keys   []string
	vals   map[string]*node
	kpos   map[string]pos // key positions, for unknown/duplicate reporting
	items  []*node
}

// srcline is one significant (non-blank, non-comment) source line.
type srcline struct {
	no     int // 1-based
	indent int // leading spaces
	text   string
}

// splitLines prepares the line list: comments stripped, blank lines
// dropped, tabs in indentation rejected.
func splitLines(data []byte) ([]srcline, error) {
	var out []srcline
	for no, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSuffix(raw, "\r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, errAt(pos{no + 1, indent + 1},
				"tab character in indentation (use spaces)")
		}
		text := strings.TrimRight(stripComment(line[indent:]), " \t")
		if text == "" {
			continue
		}
		if indent == 0 && (text == "---" || text == "...") {
			continue // document markers are tolerated and ignored
		}
		out = append(out, srcline{no: no + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing "# ..." comment, honoring quotes. A '#'
// begins a comment only at the start of the content or after whitespace.
func stripComment(s string) string {
	var inS, inD bool
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case c == '\\' && inD && i+1 < len(s):
			i++
		case c == '#' && !inS && !inD && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

type parser struct {
	ls []srcline
	i  int
}

// parseDocument parses a whole scenario file into its root mapping.
func parseDocument(data []byte) (*node, error) {
	ls, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	if len(ls) == 0 {
		return nil, errAt(pos{1, 1}, "empty scenario document")
	}
	if ls[0].indent != 0 {
		return nil, errAt(pos{ls[0].no, ls[0].indent + 1},
			"top-level content must not be indented")
	}
	p := &parser{ls: ls}
	root, err := p.parseValue(0)
	if err != nil {
		return nil, err
	}
	if p.i < len(p.ls) {
		l := p.ls[p.i]
		return nil, errAt(pos{l.no, l.indent + 1}, "unexpected content after document")
	}
	if root.kind != mapNode {
		return nil, errAt(root.pos, "top level must be a mapping, got %s", root.kind)
	}
	return root, nil
}

// parseValue parses the block value starting at the current line, whose
// indentation must be exactly indent.
func (p *parser) parseValue(indent int) (*node, error) {
	cur := p.ls[p.i]
	if cur.text == "-" || strings.HasPrefix(cur.text, "- ") {
		return p.parseSeq(indent)
	}
	if _, _, ok := findKey(cur.text); ok {
		return p.parseMap(indent)
	}
	// A bare scalar on its own line (e.g. the value of "key:" placed on
	// the next line).
	p.i++
	return parseScalarToken(cur.text, pos{cur.no, cur.indent + 1})
}

// parseMap parses consecutive "key: value" lines at exactly indent.
func (p *parser) parseMap(indent int) (*node, error) {
	first := p.ls[p.i]
	nd := &node{
		kind: mapNode,
		pos:  pos{first.no, first.indent + 1},
		vals: map[string]*node{},
		kpos: map[string]pos{},
	}
	for p.i < len(p.ls) {
		cur := p.ls[p.i]
		if cur.indent < indent {
			break
		}
		if cur.indent > indent {
			return nil, errAt(pos{cur.no, cur.indent + 1}, "unexpected indentation")
		}
		if cur.text == "-" || strings.HasPrefix(cur.text, "- ") {
			return nil, errAt(pos{cur.no, cur.indent + 1},
				"sequence item in mapping context")
		}
		key, rest, ok := findKey(cur.text)
		if !ok {
			return nil, errAt(pos{cur.no, cur.indent + 1},
				"expected 'key: value', got %q", cur.text)
		}
		kp := pos{cur.no, cur.indent + 1}
		if err := checkKey(key, kp); err != nil {
			return nil, err
		}
		if _, dup := nd.vals[key]; dup {
			return nil, errAt(kp, "duplicate key %q (first at line %d)",
				key, nd.kpos[key].line)
		}
		p.i++
		var val *node
		var err error
		if rest == "" {
			if p.i < len(p.ls) && p.ls[p.i].indent > indent {
				val, err = p.parseValue(p.ls[p.i].indent)
			} else {
				// "key:" with nothing nested — an empty scalar; decoders
				// reject it where a value is required.
				val = &node{kind: scalarNode, pos: pos{cur.no, cur.indent + len(key) + 2}}
			}
		} else {
			// Keys cannot contain ':' (checkKey), so the first colon is
			// the split point; the value starts after it and any spaces.
			ci := strings.IndexByte(cur.text, ':')
			after := cur.text[ci+1:]
			lead := len(after) - len(strings.TrimLeft(after, " "))
			val, err = parseInline(rest, pos{cur.no, cur.indent + ci + lead + 2})
		}
		if err != nil {
			return nil, err
		}
		nd.keys = append(nd.keys, key)
		nd.vals[key] = val
		nd.kpos[key] = kp
	}
	return nd, nil
}

// parseSeq parses consecutive "- item" lines at exactly indent. An item
// with content on the dash line is re-parsed at the content's column, so
// "- name: x" + deeper continuation lines form one inline mapping.
func (p *parser) parseSeq(indent int) (*node, error) {
	first := p.ls[p.i]
	nd := &node{kind: seqNode, pos: pos{first.no, first.indent + 1}}
	for p.i < len(p.ls) {
		cur := p.ls[p.i]
		if cur.indent != indent || (cur.text != "-" && !strings.HasPrefix(cur.text, "- ")) {
			if cur.indent > indent {
				return nil, errAt(pos{cur.no, cur.indent + 1}, "unexpected indentation")
			}
			break
		}
		rest := strings.TrimPrefix(cur.text, "-")
		content := strings.TrimLeft(rest, " ")
		if content == "" {
			p.i++
			if p.i >= len(p.ls) || p.ls[p.i].indent <= indent {
				return nil, errAt(pos{cur.no, cur.indent + 1}, "empty sequence item")
			}
			item, err := p.parseValue(p.ls[p.i].indent)
			if err != nil {
				return nil, err
			}
			nd.items = append(nd.items, item)
			continue
		}
		// Re-anchor the line at the content's own column and parse a
		// normal block value there; continuation lines at that column
		// extend the item.
		contentIndent := cur.indent + 1 + (len(rest) - len(content))
		p.ls[p.i] = srcline{no: cur.no, indent: contentIndent, text: content}
		item, err := p.parseValue(contentIndent)
		if err != nil {
			return nil, err
		}
		nd.items = append(nd.items, item)
	}
	return nd, nil
}

// findKey locates the key/value split of a mapping line: the first ':'
// that ends the line or is followed by a space.
func findKey(text string) (key, rest string, ok bool) {
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == '"' || c == '\'' {
			return "", "", false // quoted scalar line, not a mapping entry
		}
		if c == ':' && (i+1 == len(text) || text[i+1] == ' ') {
			return strings.TrimRight(text[:i], " "), strings.TrimSpace(text[i+1:]), true
		}
	}
	return "", "", false
}

// checkKey enforces the schema's identifier shape for mapping keys.
func checkKey(key string, at pos) error {
	if key == "" {
		return errAt(at, "empty mapping key")
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case i > 0 && (c >= '0' && c <= '9' || c == '-' || c == '.'):
		default:
			return errAt(at, "invalid mapping key %q", key)
		}
	}
	return nil
}

// parseInline parses a value that sits on the same line as its key: a
// flow sequence "[a, b]" or a scalar.
func parseInline(s string, at pos) (*node, error) {
	if strings.HasPrefix(s, "{") {
		return nil, errAt(at, "flow mappings ('{...}') are not supported; use block style")
	}
	if strings.HasPrefix(s, "[") {
		return parseFlowSeq(s, at)
	}
	return parseScalarToken(s, at)
}

// parseFlowSeq parses "[a, b, c]" with scalar elements only.
func parseFlowSeq(s string, at pos) (*node, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, errAt(at, "unterminated flow sequence %q", s)
	}
	body := s[1 : len(s)-1]
	nd := &node{kind: seqNode, pos: at}
	if strings.TrimSpace(body) == "" {
		return nd, nil
	}
	elems, offs, err := splitFlow(body, at)
	if err != nil {
		return nil, err
	}
	for i, e := range elems {
		t := strings.TrimSpace(e)
		if t == "" {
			return nil, errAt(at, "empty element in flow sequence")
		}
		ep := pos{at.line, at.col + 1 + offs[i] + strings.Index(e, t)}
		if strings.ContainsAny(t, "[]{}") {
			return nil, errAt(ep, "nested collections are not allowed in flow sequences")
		}
		item, err := parseScalarToken(t, ep)
		if err != nil {
			return nil, err
		}
		nd.items = append(nd.items, item)
	}
	return nd, nil
}

// splitFlow splits a flow-sequence body on top-level commas, honoring
// quotes, returning the pieces and their byte offsets.
func splitFlow(body string, at pos) ([]string, []int, error) {
	var elems []string
	var offs []int
	start := 0
	var inS, inD bool
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case c == '\\' && inD && i+1 < len(body):
			i++
		case c == ',' && !inS && !inD:
			elems = append(elems, body[start:i])
			offs = append(offs, start)
			start = i + 1
		}
	}
	if inS || inD {
		return nil, nil, errAt(at, "unterminated quote in flow sequence")
	}
	elems = append(elems, body[start:])
	offs = append(offs, start)
	return elems, offs, nil
}

// parseScalarToken parses one scalar: double-quoted (with \" \\ \n \t
// escapes), single-quoted (a doubled single quote escapes one), or plain.
func parseScalarToken(s string, at pos) (*node, error) {
	nd := &node{kind: scalarNode, pos: at}
	switch {
	case strings.HasPrefix(s, "\""):
		body, err := unquoteDouble(s, at)
		if err != nil {
			return nil, err
		}
		nd.scalar, nd.quoted = body, true
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") || strings.Count(s, "'")%2 != 0 {
			return nil, errAt(at, "unterminated single-quoted scalar %q", s)
		}
		nd.scalar = strings.ReplaceAll(s[1:len(s)-1], "''", "'")
		nd.quoted = true
	default:
		if strings.ContainsAny(s, "\"'") {
			return nil, errAt(at, "quote inside plain scalar %q (quote the whole value)", s)
		}
		nd.scalar = s
	}
	return nd, nil
}

func unquoteDouble(s string, at pos) (string, error) {
	if len(s) < 2 || !strings.HasSuffix(s, "\"") {
		return "", errAt(at, "unterminated double-quoted scalar %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			if c == '"' {
				return "", errAt(at, "unescaped quote inside double-quoted scalar %q", s)
			}
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", errAt(at, "trailing backslash in %q", s)
		}
		switch body[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		default:
			return "", errAt(at, "unsupported escape \\%c in %q", body[i], s)
		}
	}
	return b.String(), nil
}
