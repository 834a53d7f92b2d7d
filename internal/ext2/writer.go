package ext2

import "fmt"

// WriteImage serializes the file tree rooted at root (which must be a
// directory; its Name is ignored) into a complete ext2 image.
//
// The image is sized before anything is written: a planning pass counts
// every node's data and indirect blocks, which fixes the group geometry,
// and the image is then allocated once and every block is written
// straight to its final address. Data blocks are laid out in write order
// — a directory's children (depth first, by name) before the directory's
// own entries, and a file's data blocks before its indirect blocks —
// filling each group's data area before moving to the next.
func WriteImage(root *File) ([]byte, error) {
	if root == nil || !root.Dir {
		return nil, fmt.Errorf("ext2: root must be a directory")
	}
	if err := root.validate(); err != nil {
		return nil, err
	}

	w := &writer{inodeOf: map[*File]uint32{root: rootInode}, dirs: make(map[*File]dirPlan)}
	// Assign inode numbers: root gets 2, everything else sequentially.
	w.assign(root)
	dataBlocks, err := w.plan(root, rootInode)
	if err != nil {
		return nil, err
	}
	if err := w.layout(dataBlocks); err != nil {
		return nil, err
	}
	w.ids = make([]uint32, 0, w.maxFileBlocks)
	w.writeNode(root, rootInode)
	w.finish()
	return w.img, nil
}

type writer struct {
	inodeCount    int
	inodeOf       map[*File]uint32
	dirs          map[*File]dirPlan
	dirCount      int
	maxFileBlocks int // largest data-block count of any one node

	img   []byte
	geo   []groupGeometry
	group int      // group holding the next data block
	next  int      // next free data block
	ids   []uint32 // scratch: the current file's data block numbers
}

// dirPlan is a directory's children in write order and its encoded
// entries, fixed by the planning pass.
type dirPlan struct {
	children []*File
	entries  []byte
}

// assign numbers every node below root in depth-first order, children in
// tree order.
func (w *writer) assign(root *File) {
	next := uint32(firstFreeInode)
	var rec func(n *File)
	rec = func(n *File) {
		for _, c := range n.Children {
			w.inodeOf[c] = next
			next++
			rec(c)
		}
	}
	rec(root)
	w.inodeCount = int(next) - firstFreeInode + 1
}

// plan returns the number of data blocks (including indirect blocks)
// the subtree at n occupies, encoding each directory's entries on the
// way. It visits nodes in write order, so a size error names the same
// file writing it would.
func (w *writer) plan(n *File, parentIno uint32) (int, error) {
	switch {
	case n.Dir:
		total := 0
		children := n.sortedChildren()
		entries := []dirEntry{
			{ino: w.inodeOf[n], name: ".", ftype: fileTypeDir},
			{ino: parentIno, name: "..", ftype: fileTypeDir},
		}
		for _, c := range children {
			ft := byte(fileTypeRegular)
			switch {
			case c.Dir:
				ft = fileTypeDir
			case c.Symlink:
				ft = fileTypeSymlink
			}
			entries = append(entries, dirEntry{ino: w.inodeOf[c], name: c.Name, ftype: ft})
			k, err := w.plan(c, w.inodeOf[n])
			if err != nil {
				return 0, err
			}
			total += k
		}
		enc := encodeDirEntries(entries)
		w.dirs[n] = dirPlan{children: children, entries: enc}
		k, err := w.countBlocks(len(enc))
		return total + k, err
	case n.Symlink && len(n.Data) < 60:
		return 0, nil // fast symlink: target lives in the inode
	default:
		return w.countBlocks(len(n.Data))
	}
}

// countBlocks returns how many blocks content of size bytes occupies:
// its data blocks plus the single- and double-indirect pointer blocks
// storeData allocates for them.
func (w *writer) countBlocks(size int) (int, error) {
	n := (size + BlockSize - 1) / BlockSize
	if n > maxFileBlocks {
		return 0, fmt.Errorf("ext2: file of %d bytes exceeds maximum size", size)
	}
	w.maxFileBlocks = max(w.maxFileBlocks, n)
	total := n
	if n > directBlocks {
		total++ // single indirect
	}
	if rest := n - directBlocks - pointersPerBlock; rest > 0 {
		total += (rest+pointersPerBlock-1)/pointersPerBlock + 1 // level-1 blocks + double indirect
	}
	return total, nil
}

// Multi-group geometry. Each block group spans blocksPerGroup blocks and
// holds its own block bitmap, inode bitmap and inode-table slice; the
// superblock and the group descriptor table live in group 0 only (the
// sparse-superblock layout). inodesPerGroup is fixed so an inode's group
// is ino/inodesPerGroup.
const (
	blocksPerGroup = BlockSize * 8 // one bitmap block covers the group
	inodesPerGroup = 512
	inodeTableBlks = inodesPerGroup * InodeSize / BlockSize // 64
	maxGroups      = 1024                                   // 8 GiB images; far beyond any rootfs here
)

// groupGeometry describes the computed layout of one block group.
type groupGeometry struct {
	start      int // first block of the group
	blockBM    int
	inodeBM    int
	inodeTable int
	dataStart  int
	dataEnd    int // exclusive; trimmed for the final group
}

// usedInodes counts the reserved inodes plus every non-root node (the
// root occupies reserved slot 2).
func (w *writer) usedInodes() int { return firstFreeInode - 1 + w.inodeCount - 1 }

// layout fixes the group count and each group's geometry for dataBlocks
// data blocks, then allocates the image.
func (w *writer) layout(dataBlocks int) error {
	inodeGroups := (w.usedInodes() + inodesPerGroup - 1) / inodesPerGroup

	// Determine the group count: group 0 additionally carries the
	// superblock and the GDT, so its data capacity depends on the group
	// count itself — iterate until stable.
	groups := max(inodeGroups, 1)
	for {
		gdtBlocks := (groups*32 + BlockSize - 1) / BlockSize
		capacity := groups*(blocksPerGroup-2-inodeTableBlks) - 1 - gdtBlocks
		if capacity >= dataBlocks {
			break
		}
		groups++
		if groups > maxGroups {
			return fmt.Errorf("ext2: image needs more than %d block groups", maxGroups)
		}
	}
	gdtBlocks := (groups*32 + BlockSize - 1) / BlockSize

	// Lay out each group and fill group data areas in order.
	w.geo = make([]groupGeometry, groups)
	for g := range w.geo {
		start := firstDataBlock + g*blocksPerGroup
		meta := start
		if g == 0 {
			meta += 1 + gdtBlocks // skip superblock + GDT
		}
		dataStart := meta + 2 + inodeTableBlks
		take := min(dataBlocks, start+blocksPerGroup-dataStart)
		dataBlocks -= take
		w.geo[g] = groupGeometry{
			start:      start,
			blockBM:    meta,
			inodeBM:    meta + 1,
			inodeTable: meta + 2,
			dataStart:  dataStart,
			dataEnd:    dataStart + take,
		}
	}
	w.img = make([]byte, w.geo[groups-1].dataEnd*BlockSize)
	w.next = w.geo[0].dataStart
	return nil
}

// allocBlock claims the next data block in layout order and returns its
// absolute block number.
func (w *writer) allocBlock() uint32 {
	for w.next == w.geo[w.group].dataEnd {
		w.group++
		w.next = w.geo[w.group].dataStart
	}
	b := w.next
	w.next++
	return uint32(b)
}

// blockAt returns block n of the image.
func (w *writer) blockAt(n uint32) []byte {
	return w.img[int(n)*BlockSize : (int(n)+1)*BlockSize]
}

// inodeSlot returns inode ino's 128-byte slot in its group's inode table.
func (w *writer) inodeSlot(ino uint32) []byte {
	idx := int(ino) - 1
	off := w.geo[idx/inodesPerGroup].inodeTable*BlockSize + (idx%inodesPerGroup)*InodeSize
	return w.img[off : off+InodeSize]
}

// storeData writes content into data blocks and fills the inode's size,
// sector count and block pointers, using direct, single-indirect and
// double-indirect blocks. plan has already checked the size.
func (w *writer) storeData(slot, content []byte) {
	ids := w.ids[:0]
	for off := 0; off < len(content); off += BlockSize {
		b := w.allocBlock()
		copy(w.blockAt(b), content[off:min(off+BlockSize, len(content))])
		ids = append(ids, b)
	}
	used := len(ids)

	// Direct pointers.
	direct := min(len(ids), directBlocks)
	for i, b := range ids[:direct] {
		le.PutUint32(slot[40+4*i:], b)
	}
	rest := ids[direct:]
	// Single indirect.
	if len(rest) > 0 {
		n := min(len(rest), pointersPerBlock)
		le.PutUint32(slot[40+4*12:], w.allocPointerBlock(rest[:n]))
		used++
		rest = rest[n:]
	}
	// Double indirect: the level-1 blocks first, then the block naming them.
	if len(rest) > 0 {
		var l1 [pointersPerBlock]uint32
		k := 0
		for ; len(rest) > 0; k++ {
			n := min(len(rest), pointersPerBlock)
			l1[k] = w.allocPointerBlock(rest[:n])
			used++
			rest = rest[n:]
		}
		le.PutUint32(slot[40+4*13:], w.allocPointerBlock(l1[:k]))
		used++
	}
	le.PutUint32(slot[4:], uint32(len(content)))
	le.PutUint32(slot[28:], uint32(used*(BlockSize/512)))
}

func (w *writer) allocPointerBlock(ptrs []uint32) uint32 {
	b := w.allocBlock()
	blk := w.blockAt(b)
	for i, p := range ptrs {
		le.PutUint32(blk[i*4:], p)
	}
	return b
}

// writeNode serializes one node (and, for directories, recursively its
// children) into its inode slot and data blocks.
func (w *writer) writeNode(n *File, ino uint32) {
	slot := w.inodeSlot(ino)
	links := uint16(1)
	switch {
	case n.Dir:
		w.dirCount++
		le.PutUint16(slot[0:], modeDir|(n.Mode&0o7777))
		links = 2 // "." and the parent's entry
		d := w.dirs[n]
		for _, c := range d.children {
			if c.Dir {
				links++ // child's ".." references us
			}
			w.writeNode(c, w.inodeOf[c])
		}
		w.storeData(slot, d.entries)
	case n.Symlink:
		le.PutUint16(slot[0:], modeSymlink|(n.Mode&0o7777))
		if len(n.Data) < 60 {
			// Fast symlink: target lives in the i_block area.
			copy(slot[40:100], n.Data)
			le.PutUint32(slot[4:], uint32(len(n.Data)))
		} else {
			w.storeData(slot, n.Data)
		}
	default:
		le.PutUint16(slot[0:], modeFile|(n.Mode&0o7777))
		w.storeData(slot, n.Data)
	}
	le.PutUint16(slot[26:], links)
}

type dirEntry struct {
	ino   uint32
	name  string
	ftype byte
}

// encodeDirEntries lays out ext2_dir_entry_2 records, padding the final
// entry of each block to the block boundary as ext2 requires.
func encodeDirEntries(entries []dirEntry) []byte {
	var out []byte
	blockUsed := 0
	for i, e := range entries {
		need := 8 + ((len(e.name) + 3) &^ 3)
		if blockUsed+need > BlockSize {
			// Extend the previous record to the end of the block.
			fixLastRecLen(out, blockUsed)
			out = append(out, make([]byte, BlockSize-blockUsed)...)
			blockUsed = 0
		}
		recLen := need
		if i == len(entries)-1 {
			recLen = BlockSize - blockUsed // last record fills the block
		}
		out = append(out, make([]byte, recLen)...)
		rec := out[len(out)-recLen:]
		le.PutUint32(rec[0:], e.ino)
		le.PutUint16(rec[4:], uint16(recLen))
		rec[6] = byte(len(e.name))
		rec[7] = e.ftype
		copy(rec[8:], e.name)
		blockUsed += recLen
		if blockUsed == BlockSize {
			blockUsed = 0
		}
	}
	return out
}

// fixLastRecLen widens the rec_len of the final record in the current
// block so it reaches the block boundary.
func fixLastRecLen(out []byte, blockUsed int) {
	if blockUsed == 0 {
		return
	}
	// Find the final record by walking from the start of the last block.
	start := len(out) - blockUsed
	off := start
	for {
		recLen := int(le.Uint16(out[off+4:]))
		if off+recLen >= len(out) {
			le.PutUint16(out[off+4:], uint16(BlockSize-(off-start)))
			return
		}
		off += recLen
	}
}

// finish writes the metadata: per-group bitmaps, the superblock and the
// group descriptor table.
func (w *writer) finish() {
	img, geo, groups := w.img, w.geo, len(w.geo)
	usedInodes := w.usedInodes()
	totalBlocks := len(img) / BlockSize

	// Bitmaps: every metadata and assigned data block in a group is used.
	for g := range geo {
		bm := w.blockAt(uint32(geo[g].blockBM))
		for b := geo[g].start; b < geo[g].dataEnd; b++ {
			i := b - geo[g].start
			bm[i/8] |= 1 << (i % 8)
		}
		ibm := w.blockAt(uint32(geo[g].inodeBM))
		lo := g * inodesPerGroup
		for i := lo; i < usedInodes && i < lo+inodesPerGroup; i++ {
			j := i - lo
			ibm[j/8] |= 1 << (j % 8)
		}
	}

	// Superblock at offset 1024.
	sb := w.blockAt(1)
	le.PutUint32(sb[0:], uint32(groups*inodesPerGroup))             // s_inodes_count
	le.PutUint32(sb[4:], uint32(totalBlocks))                       // s_blocks_count
	le.PutUint32(sb[12:], 0)                                        // s_free_blocks_count
	le.PutUint32(sb[16:], uint32(groups*inodesPerGroup-usedInodes)) // s_free_inodes_count
	le.PutUint32(sb[20:], firstDataBlock)                           // s_first_data_block
	le.PutUint32(sb[24:], 0)                                        // s_log_block_size: 1 KiB
	le.PutUint32(sb[32:], uint32(blocksPerGroup))                   // s_blocks_per_group
	le.PutUint32(sb[40:], uint32(inodesPerGroup))                   // s_inodes_per_group
	le.PutUint16(sb[56:], superMagic)                               // s_magic
	le.PutUint16(sb[58:], 1)                                        // s_state: clean

	// Group descriptor table starting in block 2.
	for g := range geo {
		gd := img[2*BlockSize+g*32 : 2*BlockSize+g*32+32]
		le.PutUint32(gd[0:], uint32(geo[g].blockBM))
		le.PutUint32(gd[4:], uint32(geo[g].inodeBM))
		le.PutUint32(gd[8:], uint32(geo[g].inodeTable))
		if g == 0 {
			le.PutUint16(gd[16:], uint16(w.dirCount)) // bg_used_dirs_count
		}
	}
}
