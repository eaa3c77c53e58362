// Package htmlparse is a from-scratch HTML tokenizer and DOM-tree builder
// sized for the browsing engine: it handles elements, attributes (quoted and
// bare), text, comments, doctype, void elements, and raw-text elements
// (script/style), and extracts the external resources a page references —
// the object-identification step that PARCEL moves to the proxy (§4.2).
//
// The tokenizer is built for the simulator's hot loop: every token is a view
// into the source string (substring slicing, no copies), nodes and attribute
// pairs are carved from arena blocks owned by the parse (one allocation per
// block instead of one per node), and tag/attribute names that are already
// lowercase — the overwhelmingly common case — are never re-lowercased into
// fresh strings. A single scratch buffer handles the uppercase exceptions.
package htmlparse

import (
	"fmt"
	"strings"
)

// Attr is one element attribute (keys are lowercased).
type Attr struct {
	Key   string
	Value string
}

// AttrList is an element's attributes in source order. It replaces a
// per-element map: pages average a handful of attributes per element, where
// a linear scan over an arena-backed slice beats a heap-allocated map.
type AttrList []Attr

// Get returns the value for key and whether the attribute is present.
func (l AttrList) Get(key string) (string, bool) {
	for i := range l {
		if l[i].Key == key {
			return l[i].Value, true
		}
	}
	return "", false
}

// Has reports whether the attribute is present (possibly empty-valued).
func (l AttrList) Has(key string) bool {
	_, ok := l.Get(key)
	return ok
}

// Node is a DOM node: an element (Tag != "") or a text node (Tag == "").
type Node struct {
	Tag      string
	Attrs    AttrList
	Children []*Node
	Text     string // text nodes and raw-text element content
}

// Attr returns the attribute value (lowercased key) or "".
func (n *Node) Attr(key string) string {
	v, _ := n.Attrs.Get(key)
	return v
}

// HasAttr reports whether the attribute is present, even when empty (the
// boolean attributes: async, defer, checked, ...).
func (n *Node) HasAttr(key string) bool { return n.Attrs.Has(key) }

// voidElements never have closing tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"source": true, "track": true, "wbr": true,
}

// rawTextElements contain raw text until their literal closing tag.
var rawTextElements = map[string]bool{"script": true, "style": true, "title": true}

// Parse builds a DOM tree from HTML source. The parser is forgiving the way
// browsers are: unknown tags nest normally, stray closing tags pop to the
// nearest matching open element, and unclosed elements are closed at EOF.
func Parse(src []byte) (*Node, error) {
	p := &parser{src: string(src)}
	root := p.newNode()
	root.Tag = "#document"
	p.stack = append(p.stackBuf[:0], root)
	if err := p.run(); err != nil {
		return nil, err
	}
	return root, nil
}

// nodeBlockSize is how many Nodes one arena block holds. The blocks stay
// reachable through the tree, so the arena only batches allocations — it
// never changes object lifetime.
const nodeBlockSize = 64

// attrBlockSize is how many attribute pairs one arena block holds.
const attrBlockSize = 128

// maxDepth caps the open-element stack, like browsers clamp DOM depth.
// Elements past the cap still appear in the tree but as siblings, not
// children. Beyond sanity, the cap bounds the stray-close-tag scan in popTo:
// without it, byte soup of N opens followed by N unmatched closes costs
// O(N·depth) — a fuzzing hang, not a parse.
const maxDepth = 256

type parser struct {
	src   string
	pos   int
	stack []*Node

	stackBuf  [16]*Node // initial open-element stack storage
	nodeArena []Node
	attrArena []Attr
	attrBuf   []Attr // scratch for the tag currently being tokenized
	lowerBuf  []byte // scratch for the rare uppercase-name lowercasing
}

// newNode carves a zeroed node out of the arena.
func (p *parser) newNode() *Node {
	if len(p.nodeArena) == 0 {
		p.nodeArena = make([]Node, nodeBlockSize)
	}
	n := &p.nodeArena[0]
	p.nodeArena = p.nodeArena[1:]
	return n
}

// internAttrs copies the scratch attribute pairs into the arena and returns
// the element's view. The capacity is clamped so a later append on the view
// could never clobber a neighbouring element's attributes.
func (p *parser) internAttrs(scratch []Attr) AttrList {
	k := len(scratch)
	if k == 0 {
		return nil
	}
	if len(p.attrArena) < k {
		size := attrBlockSize
		if k > size {
			size = k
		}
		p.attrArena = make([]Attr, size)
	}
	out := p.attrArena[:k:k]
	p.attrArena = p.attrArena[k:]
	copy(out, scratch)
	return out
}

// lower returns s lowercased. When s has no uppercase letters — tag and
// attribute names in real markup almost always — it returns s itself, a view
// with no allocation; otherwise it lowercases through the shared scratch
// buffer, paying one small copy.
func (p *parser) lower(s string) string {
	upper := -1
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			upper = i
			break
		}
	}
	if upper < 0 {
		return s
	}
	p.lowerBuf = append(p.lowerBuf[:0], s...)
	for i := upper; i < len(p.lowerBuf); i++ {
		if c := p.lowerBuf[i]; c >= 'A' && c <= 'Z' {
			p.lowerBuf[i] = c + ('a' - 'A')
		}
	}
	return string(p.lowerBuf)
}

func (p *parser) top() *Node { return p.stack[len(p.stack)-1] }

func (p *parser) appendChild(n *Node) {
	t := p.top()
	t.Children = append(t.Children, n)
}

func (p *parser) run() error {
	for p.pos < len(p.src) {
		if p.src[p.pos] == '<' {
			if err := p.tag(); err != nil {
				return err
			}
			continue
		}
		p.text()
	}
	return nil
}

func (p *parser) text() {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '<' {
		p.pos++
	}
	chunk := p.src[start:p.pos]
	if strings.TrimSpace(chunk) != "" {
		n := p.newNode()
		n.Text = chunk
		p.appendChild(n)
	}
}

func (p *parser) tag() error {
	// p.src[p.pos] == '<'
	if strings.HasPrefix(p.src[p.pos:], "<!--") {
		end := strings.Index(p.src[p.pos+4:], "-->")
		if end < 0 {
			p.pos = len(p.src)
			return nil
		}
		p.pos += 4 + end + 3
		return nil
	}
	if strings.HasPrefix(p.src[p.pos:], "<!") { // doctype and friends
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			p.pos = len(p.src)
			return nil
		}
		p.pos += end + 1
		return nil
	}
	if strings.HasPrefix(p.src[p.pos:], "</") {
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return fmt.Errorf("htmlparse: unterminated closing tag at offset %d", p.pos)
		}
		name := p.lower(strings.TrimSpace(p.src[p.pos+2 : p.pos+end]))
		p.pos += end + 1
		p.popTo(name)
		return nil
	}
	// Opening tag.
	name, attrs, selfClose, err := p.openTag()
	if err != nil {
		return err
	}
	if name == "" {
		return nil // bare '<' handled inside openTag
	}
	n := p.newNode()
	n.Tag = name
	n.Attrs = attrs
	p.appendChild(n)
	if selfClose || voidElements[name] {
		return nil
	}
	if rawTextElements[name] {
		idx := indexCloseTagFold(p.src[p.pos:], name)
		if idx < 0 {
			n.Text = p.src[p.pos:]
			p.pos = len(p.src)
			return nil
		}
		n.Text = p.src[p.pos : p.pos+idx]
		rest := p.src[p.pos+idx:]
		gt := strings.IndexByte(rest, '>')
		if gt < 0 {
			p.pos = len(p.src)
			return nil
		}
		p.pos += idx + gt + 1
		return nil
	}
	if len(p.stack) < maxDepth {
		p.stack = append(p.stack, n)
	}
	return nil
}

// indexCloseTagFold finds the first ASCII-case-insensitive occurrence of
// "</name" in s, without lowercasing (and so copying) the remaining source
// the way a strings.ToLower scan would.
func indexCloseTagFold(s, name string) int {
	n := len(name) + 2
	for i := 0; i+n <= len(s); i++ {
		if s[i] != '<' || s[i+1] != '/' {
			continue
		}
		if foldEq(s[i+2:i+n], name) {
			return i
		}
	}
	return -1
}

// foldEq reports ASCII-case-insensitive equality of equal-length strings,
// where b is already lowercase.
func foldEq(a, b string) bool {
	for i := 0; i < len(a); i++ {
		ca := a[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if ca != b[i] {
			return false
		}
	}
	return true
}

// openTag parses "<name attr=val ...>" starting at p.pos ('<'). A returned
// empty name means the '<' was bare text (already handled).
func (p *parser) openTag() (name string, attrs AttrList, selfClose bool, err error) {
	i := p.pos + 1
	start := i
	for i < len(p.src) && isNameChar(p.src[i]) {
		i++
	}
	if i == start {
		// A bare '<' in text; treat it as text.
		n := p.newNode()
		n.Text = "<"
		p.appendChild(n)
		p.pos++
		return "", nil, true, nil
	}
	name = p.lower(p.src[start:i])
	scratch := p.attrBuf[:0]
	defer func() { p.attrBuf = scratch[:0] }()
	for {
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) {
			return "", nil, false, fmt.Errorf("htmlparse: unterminated tag <%s at offset %d", name, p.pos)
		}
		if p.src[i] == '>' {
			p.pos = i + 1
			return name, p.internAttrs(scratch), selfClose, nil
		}
		if p.src[i] == '/' {
			selfClose = true
			i++
			continue
		}
		// Attribute.
		aStart := i
		for i < len(p.src) && !isSpace(p.src[i]) && p.src[i] != '=' && p.src[i] != '>' && p.src[i] != '/' {
			i++
		}
		key := p.lower(p.src[aStart:i])
		val := ""
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i < len(p.src) && p.src[i] == '=' {
			i++
			for i < len(p.src) && isSpace(p.src[i]) {
				i++
			}
			if i < len(p.src) && (p.src[i] == '"' || p.src[i] == '\'') {
				quote := p.src[i]
				i++
				vStart := i
				for i < len(p.src) && p.src[i] != quote {
					i++
				}
				val = p.src[vStart:i]
				if i < len(p.src) {
					i++
				}
			} else {
				vStart := i
				for i < len(p.src) && !isSpace(p.src[i]) && p.src[i] != '>' {
					i++
				}
				val = p.src[vStart:i]
			}
		}
		if key != "" {
			// Duplicate attribute: per the HTML spec the first wins.
			dup := false
			for j := range scratch {
				if scratch[j].Key == key {
					dup = true
					break
				}
			}
			if !dup {
				scratch = append(scratch, Attr{Key: key, Value: val})
			}
		}
	}
}

// popTo closes elements up to and including the nearest element named name.
func (p *parser) popTo(name string) {
	for i := len(p.stack) - 1; i > 0; i-- {
		if p.stack[i].Tag == name {
			p.stack = p.stack[:i]
			return
		}
	}
	// No matching open element: ignore the stray closing tag.
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
}

// Walk visits every node in document order.
func Walk(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		Walk(c, fn)
	}
}

// Find returns every element with the given tag, in document order.
func Find(root *Node, tag string) []*Node {
	var out []*Node
	Walk(root, func(n *Node) {
		if n.Tag == tag {
			out = append(out, n)
		}
	})
	return out
}

// ResKind classifies a referenced resource.
type ResKind int

const (
	// ResStylesheet is a <link rel=stylesheet>.
	ResStylesheet ResKind = iota
	// ResScript is a <script src>.
	ResScript
	// ResImage is an <img src> or <input type=image>.
	ResImage
	// ResIframe is an <iframe src>.
	ResIframe
	// ResMedia is <video>/<audio>/<source>/<embed> content.
	ResMedia
)

func (k ResKind) String() string {
	switch k {
	case ResStylesheet:
		return "css"
	case ResScript:
		return "script"
	case ResImage:
		return "image"
	case ResIframe:
		return "iframe"
	case ResMedia:
		return "media"
	default:
		return "?"
	}
}

// Resource is an external object a page references.
type Resource struct {
	URL   string
	Kind  ResKind
	Async bool // script with the async or defer attribute
}

// Resources extracts every external resource reference in the tree, with
// URLs resolved against baseURL.
func Resources(root *Node, baseURL string) []Resource {
	var out []Resource
	add := func(raw string, kind ResKind, async bool) {
		if raw == "" {
			return
		}
		u := ResolveURL(baseURL, raw)
		if u == "" {
			return
		}
		out = append(out, Resource{URL: u, Kind: kind, Async: async})
	}
	Walk(root, func(n *Node) {
		switch n.Tag {
		case "link":
			rel := strings.ToLower(n.Attr("rel"))
			if rel == "stylesheet" {
				add(n.Attr("href"), ResStylesheet, false)
			}
		case "script":
			if src := n.Attr("src"); src != "" {
				add(src, ResScript, n.HasAttr("async") || n.HasAttr("defer"))
			}
		case "img":
			add(n.Attr("src"), ResImage, false)
		case "input":
			if strings.ToLower(n.Attr("type")) == "image" {
				add(n.Attr("src"), ResImage, false)
			}
		case "iframe":
			add(n.Attr("src"), ResIframe, false)
		case "video", "audio", "embed", "source":
			add(n.Attr("src"), ResMedia, false)
		}
	})
	return out
}

// InlineScripts returns the bodies of <script> elements without src, in
// document order.
func InlineScripts(root *Node) []string {
	var out []string
	Walk(root, func(n *Node) {
		if n.Tag == "script" && n.Attr("src") == "" && strings.TrimSpace(n.Text) != "" {
			out = append(out, n.Text)
		}
	})
	return out
}

// InlineStyles returns the bodies of <style> elements, in document order.
func InlineStyles(root *Node) []string {
	var out []string
	Walk(root, func(n *Node) {
		if n.Tag == "style" && strings.TrimSpace(n.Text) != "" {
			out = append(out, n.Text)
		}
	})
	return out
}

// ResolveURL resolves ref against base. It supports absolute http URLs,
// protocol-relative (//host/path), root-relative (/path) and
// directory-relative (path) references. Fragment-only and non-http schemes
// resolve to "".
func ResolveURL(base, ref string) string {
	ref = strings.TrimSpace(ref)
	switch {
	case ref == "" || strings.HasPrefix(ref, "#"):
		return ""
	case strings.HasPrefix(ref, "http://"), strings.HasPrefix(ref, "https://"):
		// https objects resolve normally; PARCEL routes them over the
		// client's direct fallback path rather than the proxy (§4.5).
		return ref
	case strings.Contains(ref, "://"):
		return "" // unsupported scheme
	case strings.HasPrefix(ref, "//"):
		return "http:" + ref
	}
	rest, ok := strings.CutPrefix(base, "http://")
	if !ok {
		return ""
	}
	host := rest
	dir := "/"
	if slash := strings.IndexByte(rest, '/'); slash >= 0 {
		host = rest[:slash]
		path := rest[slash:]
		if last := strings.LastIndexByte(path, '/'); last >= 0 {
			dir = path[:last+1]
		}
	}
	if strings.HasPrefix(ref, "/") {
		return "http://" + host + ref
	}
	return "http://" + host + dir + ref
}
