"""Seeded inputs for the benchmark, independent of the hidra library.

Builds the n x n torus-grid Delta-complex and its packings with the
standard library only (``random.Random`` and ``json``), so the bytes of
every generated mesh depend on the seed alone and not on the version of
hidra, numpy or scipy being measured.

Grid layout: vertex (i, j) has id ``i*n + j`` (indices mod n).  Each
vertex owns three edges, ``3*id`` joining (i, j)-(i, j+1), ``3*id + 1``
joining (i, j)-(i+1, j) and the diagonal ``3*id + 2`` joining
(i, j)-(i+1, j+1).  Each grid square is split along its diagonal into
two counter-clockwise faces.  V = n^2, E = 3n^2, F = 2n^2, chi = 0.
"""

import hashlib
import json
import math
import random

MESH_FORMAT_VERSION = "1.0"
MAX_TRIES = 1000


def torus_grid(n):
    """(vertex_count, edges, faces) of the n x n torus grid.

    ``edges`` lists (end_a, end_b); ``faces`` lists (corners, sides) with
    side k opposite corner k, the convention of the mesh format.
    """
    if n < 3:
        raise ValueError("torus grid needs n >= 3")

    def vid(i, j):
        return (i % n) * n + (j % n)

    edges = []
    for i in range(n):
        for j in range(n):
            edges.append((vid(i, j), vid(i, j + 1)))
            edges.append((vid(i, j), vid(i + 1, j)))
            edges.append((vid(i, j), vid(i + 1, j + 1)))
    faces = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)
            right, top, diag = 3 * b + 1, 3 * d, 3 * a + 2
            bottom, left = 3 * a, 3 * a + 1
            faces.append(((a, b, c), (right, diag, bottom)))
            faces.append(((a, c, d), (top, left, diag)))
    return n * n, edges, faces


def xi_numerator(tanh_radii, inv):
    """Numerator of the compactness discriminant Xi of one face.

    ``tanh_radii`` follow the corners, ``inv[m]`` is the inversive
    distance of the side opposite corner m.  The denominator
    prod(1 - tanh^2) is positive, so Xi > 0 iff this is positive.
    """
    tp, tq, tr = tanh_radii
    a, b, c = inv
    return (
        (1.0 - c * c) * tp * tp * tq * tq
        + (1.0 - b * b) * tp * tp * tr * tr
        + (1.0 - a * a) * tq * tq * tr * tr
        + 2.0 * ((a + b * c) * tp + (b + a * c) * tq + (c + a * b) * tr)
        * tp * tq * tr
    )


def all_faces_compact(faces, tanh_radii, inv):
    return all(
        xi_numerator(
            [tanh_radii[v] for v in corners], [inv[e] for e in sides]
        ) > 0.0
        for corners, sides in faces
    )


def _sample(rng, faces, draw):
    for _ in range(MAX_TRIES):
        tanh_radii, inv = draw(rng)
        if all_faces_compact(faces, tanh_radii, inv):
            return tanh_radii, inv
    raise RuntimeError(f"no compact packing in {MAX_TRIES} draws")


def uniform_packing(rng, n, tanh_range=(0.5, 0.8), inv_range=(1.05, 1.5)):
    """tanh radii and inversive distances drawn uniformly, redrawn as a
    whole until every face has Xi > 0."""
    v_count, _, faces = torus_grid(n)

    def draw(rng):
        tanh_radii = [rng.uniform(*tanh_range) for _ in range(v_count)]
        inv = [rng.uniform(*inv_range) for _ in range(3 * v_count)]
        return tanh_radii, inv

    return _sample(rng, faces, draw)


def near_regular_packing(rng, n):
    """Every tanh r within 3% of 0.65 and every inversive distance within
    3% of 1.25.  The flow on such a grid takes the same number of steps
    for every seed, where the wide ranges of ``uniform_packing`` make it
    vary by a factor of two."""
    return uniform_packing(rng, n, tanh_range=(0.63, 0.67), inv_range=(1.22, 1.28))


def checkerboard_packing(rng, n, jitter=0.03):
    """Small circles (tanh r ~ 0.4) on even i+j, large (~ 0.8) on odd,
    inversive distance ~ 3.0 on the diagonals and ~ 1.5 on the sides.

    Diagonals join two circles of equal size; the ones between small
    circles are not weighted Delaunay, so about half the diagonals flip.
    Requires even n so the colouring wraps around the torus.
    """
    if n % 2:
        raise ValueError("checkerboard needs even n")
    v_count, _, faces = torus_grid(n)

    def jittered(rng, value):
        return value * (1.0 + rng.uniform(-jitter, jitter))

    def draw(rng):
        tanh_radii = [
            jittered(rng, 0.4 if (v // n + v % n) % 2 == 0 else 0.8)
            for v in range(v_count)
        ]
        inv = [
            jittered(rng, 3.0 if e % 3 == 2 else 1.5) for e in range(3 * v_count)
        ]
        return tanh_radii, inv

    return _sample(rng, faces, draw)


def mesh_bytes(n, tanh_radii, inv):
    """The grid with a packing, as mesh JSON bytes (mesh.schema.json)."""
    v_count, edges, faces = torus_grid(n)
    doc = {
        "format_version": MESH_FORMAT_VERSION,
        "vertices": [
            {"id": v, "radius": math.atanh(tanh_radii[v])} for v in range(v_count)
        ],
        "edges": [
            {"id": e, "ends": list(ends), "inversive_distance": inv[e]}
            for e, ends in enumerate(edges)
        ],
        "faces": [
            {"corners": list(corners), "sides": list(sides)}
            for corners, sides in faces
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def seeded_rng(seed, label):
    """One independent stream per (seed, input label)."""
    return random.Random(f"{seed}:{label}")
