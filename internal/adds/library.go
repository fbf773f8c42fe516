package adds

// This file holds the canonical ADDS declarations used throughout the
// paper; they are referenced by tests, examples and the experiment
// harness. Each is written exactly in the paper's surface syntax (§3.1
// and §4.3.1); package lang holds the one parser that reads it.

// OneWayListSrc is the paper's §3.1.1 one-way linked-list declaration —
// a single dimension X traversed uniquely forward by next.
const OneWayListSrc = `
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};`

// ListNodeSrc is the paper's *unannotated* polynomial node (§3.1.1):
// the same physical record as OneWayList but with no shape information,
// so next defaults to the unknown direction on dimension D. This is the
// declaration under which Figure 1's cyclic and tournament structures
// are legal.
const ListNodeSrc = `
type ListNode
{ int coef, exp;
  ListNode *next;
};`

// TwoWayListSrc is the doubly linked list from §2.2: forward/backward
// pair along one dimension.
const TwoWayListSrc = `
type TwoWayList [X]
{ int data;
  TwoWayList *next is uniquely forward along X;
  TwoWayList *prev is backward along X;
};`

// BinTreeSrc is the binary tree from §2.2/§3.3.1: left and right are
// uniquely forward along one dimension, so all subtrees are disjoint.
const BinTreeSrc = `
type BinTree [down]
{ int data;
  BinTree *left, *right is uniquely forward along down;
};`

// OrthListSrc is the orthogonal list (sparse matrix) from §3.1.3,
// Figure 3: two dependent dimensions X and Y.
const OrthListSrc = `
type OrthList [X][Y]
{ int data;
  OrthList *across is uniquely forward along X;
  OrthList *back   is backward along X;
  OrthList *down   is uniquely forward along Y;
  OrthList *up     is backward along Y;
};`

// TwoDRangeTreeSrc is the 2-D range tree from §3.1.3, Figure 4: three
// dimensions where sub is independent of both down and leaves.
const TwoDRangeTreeSrc = `
type TwoDRangeTree [down][sub][leaves] where sub||down, sub||leaves
{ int data;
  TwoDRangeTree *left, *right is uniquely forward along down;
  TwoDRangeTree *subtree      is uniquely forward along sub;
  TwoDRangeTree *next         is uniquely forward along leaves;
  TwoDRangeTree *prev         is backward along leaves;
};`

// OctreeSrc is the Barnes-Hut octree from §4.3.1, Figure 5: the down
// dimension forms the spatial tree, the leaves dimension threads the
// particles into a one-way list. The dimensions are dependent (the
// default), because leaf nodes are reachable along both.
const OctreeSrc = `
type Octree [down][leaves]
{ real mass;
  real posx, posy, posz;
  real forcex, forcey, forcez;
  int  node_type;
  Octree *subtrees[8] is uniquely forward along down;
  Octree *next        is uniquely forward along leaves;
};`
