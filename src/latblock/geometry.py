"""Templates, scaled regions, lattice windows, set covariance and subsample enumeration.

A template is a convex prototype set inside the half-open unit cube
``(-1/2, 1/2]^d``.  A region is the template inflated by a positive diagonal
scaling and observed on a shifted integer lattice.  Subsamples are integer
translates of a scaled-down template (overlapping scheme, ``ol``) or template
copies inscribed in disjoint cubes tiling the region (nonoverlapping, ``nol``).

All types are immutable after construction and every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySubsampleSet,
    EmptyWindow,
    NonIntegerScaleWarning,
    UnsupportedShape,
)

_EQ_TOL = 1e-9
_PACKAGE_DIR = os.path.dirname(__file__)
# Points per membership test: a block of first-axis raster lines (see
# _line_runs), whose buffer then takes 128 kB, or of lattice box points (see
# _copy_patterns), so a test's temporaries stay a few MB whatever the box.
_RASTER_BLOCK_CELLS = 1 << 14

OL = "ol"
NOL = "nol"

# Designs kept by the process-wide cache (``estimators.design_plan``), and
# windows kept by ``lattice_sites``: a phi study reuses a few dozen.
DESIGN_CACHE_SIZE = 128


# ---------------------------------------------------------------------------
# geometric primitives
# ---------------------------------------------------------------------------


class _Geometry:
    """Internal convex-body interface backing a Template.

    Convexity is relied on, not only assumed by the theory: ``raster_mask``
    and ``set_covariance`` take the inside cells of each grid line to be one
    run, and test only the cells near its two ends.
    """

    d: int
    k0 = None  # the variance constant in closed form, where one is known

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def support(self, n: np.ndarray) -> float:
        """sup of n.x over the closure."""
        raise NotImplementedError

    def set_cov_exact(self, x: np.ndarray) -> float:
        """|K ∩ (x + K)| in closed form (exact up to rounding)."""
        raise NotImplementedError

    def boundary_rate(self, lags: np.ndarray) -> np.ndarray:
        """Volume-loss rate V(k), lags (..., d): |k| times the (d-1)-volume of
        the projection along k (Cauchy's formula), -d/dt |K ∩ (tk + K)| at 0."""
        raise NotImplementedError

    def bias_weight(self, lags: np.ndarray) -> np.ndarray:
        """Covariogram weight of the bias constant: V(k) / |K|."""
        return self.boundary_rate(lags) / self.volume()

    def contains_scaled(self, pts, scale, shift) -> np.ndarray:
        """Membership of ``pts + shift`` in the diagonally inflated set.

        Shapes with algebraic boundaries override this to compare in absolute
        coordinates, where lattice sites exactly on the boundary (Pythagorean
        radii, half-integer faces) are decided without division rounding.
        """
        pts = np.asarray(pts, float)
        return self.contains((pts + shift) / scale)

    def diameter(self) -> float:
        ext = np.array([self.support(e) + self.support(-e) for e in np.eye(self.d)])
        return float(np.linalg.norm(ext))

    def bbox(self):
        eye = np.eye(self.d)
        hi = np.array([self.support(e) for e in eye])
        lo = -np.array([self.support(-e) for e in eye])
        return lo, hi


class _Box(_Geometry):
    """Half-open unit cube (-1/2, 1/2]^d (faces at +1/2 included)."""

    def __init__(self, d: int):
        self.d = d
        self.k0 = (2.0 / 3.0) ** d

    def contains(self, pts):
        pts = np.asarray(pts, float)
        return np.all((pts > -0.5) & (pts <= 0.5), axis=-1)

    def volume(self):
        return 1.0

    def support(self, n):
        return 0.5 * float(np.abs(n).sum())

    def set_cov_exact(self, x):
        x = np.asarray(x, float)
        return float(np.prod(np.maximum(0.0, 1.0 - np.abs(x))))

    def boundary_rate(self, lags):
        return np.abs(lags).sum(axis=-1)

    def contains_scaled(self, pts, scale, shift):
        pts = np.asarray(pts, float) + shift
        half = 0.5 * np.asarray(scale, float)
        return np.all((pts > -half) & (pts <= half), axis=-1)


class _Ball(_Geometry):
    """Closed ball of radius r centered at the origin (circle or sphere)."""

    def __init__(self, d: int, r: float):
        self.d = d
        self.r = float(r)
        self.k0 = {2: 1.0 - 16.0 / (3.0 * math.pi**2), 3: 34.0 / 105.0}.get(d)

    def contains(self, pts):
        pts = np.asarray(pts, float)
        return (pts * pts).sum(axis=-1) <= self.r * self.r

    def volume(self):
        if self.d == 2:
            return math.pi * self.r**2
        if self.d == 3:
            return 4.0 / 3.0 * math.pi * self.r**3
        raise UnsupportedShape(f"ball volume for d={self.d}")

    def support(self, n):
        return self.r * float(np.linalg.norm(n))

    def contains_scaled(self, pts, scale, shift):
        scale = np.asarray(scale, float)
        if np.all(scale == scale[0]):
            pts = np.asarray(pts, float) + shift
            rad = scale[0] * self.r
            return (pts * pts).sum(axis=-1) <= rad * rad
        return self.contains((np.asarray(pts, float) + shift) / scale)

    def set_cov_exact(self, x):
        t = float(np.linalg.norm(np.asarray(x, float)))
        r = self.r
        if t >= 2.0 * r:
            return 0.0
        if self.d == 2:
            return 2.0 * r * r * math.acos(t / (2.0 * r)) - 0.5 * t * math.sqrt(
                4.0 * r * r - t * t
            )
        if self.d == 3:
            return math.pi * (2.0 * r - t) ** 2 * (4.0 * r + t) / 12.0
        raise UnsupportedShape(f"ball set covariance for d={self.d}")

    def boundary_rate(self, lags):
        norm = np.linalg.norm(lags, axis=-1)
        if self.d == 2:
            return 2.0 * self.r * norm
        if self.d == 3:
            return math.pi * self.r**2 * norm
        raise UnsupportedShape(f"ball boundary rate for d={self.d}")


class _Poly2(_Geometry):
    """Convex polygon in the plane, counterclockwise vertices.

    ``closed[i]`` says whether edge i (from verts[i] to verts[i+1]) belongs
    to the set; vertices inherit membership from the edge tests.
    """

    d = 2

    def __init__(self, verts, closed, k0=None):
        self.verts = np.asarray(verts, float)
        self.closed = list(closed)
        self.k0 = k0
        if len(self.closed) != len(self.verts):
            raise ValueError("need one closedness flag per edge")
        # outward normals (CCW orientation) and offsets
        rolled = np.roll(self.verts, -1, axis=0)
        edges = rolled - self.verts
        self.normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        self.offsets = np.einsum("ij,ij->i", self.normals, self.verts)

    def contains(self, pts):
        pts = np.asarray(pts, float)
        s = pts @ self.normals.T - self.offsets
        ok = np.ones(s.shape[:-1], dtype=bool)
        for i, cl in enumerate(self.closed):
            ok &= (s[..., i] <= 0.0) if cl else (s[..., i] < 0.0)
        return ok

    def volume(self):
        x, y = self.verts[:, 0], self.verts[:, 1]
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def support(self, n):
        return float(np.max(self.verts @ np.asarray(n, float)))

    def set_cov_exact(self, x):
        return _poly_intersection_area(self.verts, self.verts + np.asarray(x, float))

    def boundary_rate(self, lags):
        # the normals have edge length, so each |k.n| is an edge's projected
        # length times |k|; the projection is covered twice
        return 0.5 * np.abs(_project(lags, self.normals)).sum(axis=-1)


class _Rect2(_Poly2):
    """Rectangle of extent ``sides[i]`` along the unit vector ``axes[i]``.

    Its bias weight sums |k.u_i| / l_i, which keeps exact identities (the
    diamond's 2 max|k_i|) that V(k) over the shoelace area misses by an ulp.
    """

    def __init__(self, verts, closed, axes, sides):
        super().__init__(verts, closed, 4.0 / 9.0)
        self.axes = np.asarray(axes, float)
        self.sides = np.asarray(sides, float)

    def bias_weight(self, lags):
        return (np.abs(_project(lags, self.axes)) / self.sides).sum(axis=-1)


class _Cylinder(_Geometry):
    """Closed cylinder in R^3: circular base of radius r in the x-y plane, height h."""

    d = 3
    k0 = 2.0 / 3.0 * (1.0 - 16.0 / (3.0 * math.pi**2))

    def __init__(self, r: float, h: float):
        self.r = float(r)
        self.h = float(h)

    def contains(self, pts):
        pts = np.asarray(pts, float)
        xy = (pts[..., 0] ** 2 + pts[..., 1] ** 2) <= self.r**2
        return xy & (np.abs(pts[..., 2]) <= self.h / 2.0)

    def volume(self):
        return math.pi * self.r**2 * self.h

    def support(self, n):
        n = np.asarray(n, float)
        return self.r * float(math.hypot(n[0], n[1])) + 0.5 * self.h * abs(float(n[2]))

    def contains_scaled(self, pts, scale, shift):
        scale = np.asarray(scale, float)
        pts = np.asarray(pts, float) + shift
        if scale[0] == scale[1]:
            rad = scale[0] * self.r
            xy = pts[..., 0] ** 2 + pts[..., 1] ** 2 <= rad * rad
        else:
            xy = (pts[..., 0] / scale[0]) ** 2 + (pts[..., 1] / scale[1]) ** 2 <= self.r**2
        return xy & (np.abs(pts[..., 2]) <= scale[2] * self.h / 2.0)

    def set_cov_exact(self, x):
        x = np.asarray(x, float)
        disk = _Ball(2, self.r).set_cov_exact(x[:2])
        return disk * max(0.0, self.h - abs(float(x[2])))

    def boundary_rate(self, lags):
        lags = np.asarray(lags, float)
        side = 2.0 * self.h * self.r * np.hypot(lags[..., 0], lags[..., 1])
        return side + math.pi * self.r**2 * np.abs(lags[..., 2])


class _AffineMap(_Geometry):
    """A template geometry pushed through an invertible linear map.

    Used by the affine-invariance checks; not part of the registered shape
    catalog, so it skips the unit-cube validation.
    """

    def __init__(self, base: _Geometry, mat: np.ndarray):
        self.base = base
        self.mat = np.asarray(mat, float)
        self.d = base.d
        self.inv = np.linalg.inv(self.mat)
        self.det = abs(float(np.linalg.det(self.mat)))

    def contains(self, pts):
        pts = np.asarray(pts, float)
        return self.base.contains(pts @ self.inv.T)

    def volume(self):
        return self.det * self.base.volume()

    def support(self, n):
        return self.base.support(self.mat.T @ np.asarray(n, float))

    def set_cov_exact(self, x):
        return self.det * self.base.set_cov_exact(self.inv @ np.asarray(x, float))

    def boundary_rate(self, lags):
        return self.det * self.base.boundary_rate(_project(lags, self.inv))


def _project(lags, vecs):
    """k.v for each lag k and row v of ``vecs``, shape (..., m); elementwise, not
    a matmul, so a lag's value does not depend on how many lags share the call."""
    return (np.asarray(lags, float)[..., None, :] * vecs).sum(axis=-1)


def _clip_halfplane(poly, n, c):
    """Keep the part of a convex polygon with n.x <= c (Sutherland-Hodgman step)."""
    out = []
    m = len(poly)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        da = float(np.dot(n, a)) - c
        db = float(np.dot(n, b)) - c
        if da <= 0.0:
            out.append(a)
        if (da < 0.0 < db) or (db < 0.0 < da):
            t = da / (da - db)
            out.append(a + t * (b - a))
    return out


def _poly_intersection_area(pa, pb):
    """Area of the intersection of two convex CCW polygons."""
    cur = [np.asarray(v, float) for v in pa]
    m = len(pb)
    for i in range(m):
        a = pb[i]
        b = pb[(i + 1) % m]
        e = b - a
        n = np.array([e[1], -e[0]])
        cur = _clip_halfplane(cur, n, float(np.dot(n, a)))
        if len(cur) < 3:
            return 0.0
    p = np.asarray(cur)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Template:
    """A convex prototype set in ``(-1/2, 1/2]^d`` with a fixed boundary rule.

    Half-open boundaries (matching the unit cube convention) for the hypercube,
    rectangles, triangles, trapezoid and parallelogram; closed boundaries for
    the circle, sphere, cylinder and hexagon.
    """

    kind: str
    d: int
    params: tuple = ()
    geom: _Geometry = field(repr=False, compare=False, default=None)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def hypercube(d: int) -> "Template":
        if d < 1:
            raise ConfigError("hypercube needs d >= 1")
        return Template("hypercube", d, (("d", d),), _Box(d))

    @staticmethod
    def circle(r: float) -> "Template":
        if not 0.0 < r <= 0.5:
            raise ConfigError("circle needs 0 < r <= 1/2")
        return Template("circle", 2, (("r", r),), _Ball(2, r))

    @staticmethod
    def sphere(r: float) -> "Template":
        if not 0.0 < r <= 0.5:
            raise ConfigError("sphere needs 0 < r <= 1/2")
        return Template("sphere", 3, (("r", r),), _Ball(3, r))

    @staticmethod
    def rotated_rectangle(theta: float, l1: float, l2: float) -> "Template":
        """Axis rectangle of side lengths l1 x l2 rotated clockwise by theta."""
        if not (0.0 <= theta <= math.pi):
            raise ConfigError("rotated rectangle needs theta in [0, pi]")
        if l1 <= 0 or l2 <= 0:
            raise ConfigError("rotated rectangle needs positive side lengths")
        c, s = rotation_cos_sin(theta)
        mat = np.array([[l1 * c, l2 * s], [-l1 * s, l2 * c]])
        corners = 0.5 * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], float)
        verts = corners @ mat.T
        _require_in_unit_cube(verts)
        # image of the half-open square: the two edges through the corner
        # (1/2, 1/2) stay included, the other two stay excluded
        closed = [False, True, True, False]
        verts, closed = _ccw(verts, closed)
        return Template(
            "rotated-rectangle",
            2,
            (("theta", theta), ("l1", l1), ("l2", l2)),
            _Rect2(verts, closed, axes=[[c, -s], [s, c]], sides=[l1, l2]),
        )

    @staticmethod
    def right_triangle() -> "Template":
        """Legs of length 1 on the lower-left sides of the unit cell."""
        verts = np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5]])
        closed = [False, True, False]  # hypotenuse included, legs excluded
        return Template("right-triangle", 2, (), _Poly2(verts, closed, 2.0 / 5.0))

    @staticmethod
    def isoceles_triangle() -> "Template":
        """Base of length 1 at the bottom edge, apex at the top center."""
        verts = np.array([[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]])
        closed = [False, True, True]  # slanted sides included, base excluded
        return Template("isoceles-triangle", 2, (), _Poly2(verts, closed, 2.0 / 5.0))

    @staticmethod
    def trapezoid(b1: float, b2: float) -> "Template":
        """Right trapezoid: parallel vertical sides of lengths b1 <= b2, unit width."""
        if not 0.0 < b1 <= b2 <= 1.0:
            raise ConfigError("trapezoid needs 0 < b1 <= b2 <= 1")
        y0 = -b2 / 2.0
        verts = np.array(
            [[-0.5, y0], [0.5, y0], [0.5, y0 + b1], [-0.5, y0 + b2]]
        )
        closed = [False, True, True, False]
        t = b2 / b1
        c = (t + 1.0) ** -2 * (1.0 + 2.0 * (t - 1.0) / (t + 1.0))
        geom = _Poly2(verts, closed, 2.0 / 5.0 * (1.0 + 4.0 * c / 9.0))
        return Template("trapezoid", 2, (("b1", b1), ("b2", b2)), geom)

    @staticmethod
    def regular_hexagon(l: float) -> "Template":
        """Regular hexagon with side l, two vertices on the x axis."""
        if not 0.0 < l <= 0.5:
            raise ConfigError("hexagon needs 0 < l <= 1/2")
        ang = np.pi / 3.0 * np.arange(6)
        verts = l * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return Template("regular-hexagon", 2, (("l", l),), _Poly2(verts, [True] * 6, 37.0 / 81.0))

    @staticmethod
    def parallelogram(gamma: float, l1: float, l2: float) -> "Template":
        """Parallelogram spanned by (l1, 0) and l2*(cos gamma, sin gamma), centered."""
        if not 0.0 < gamma < math.pi:
            raise ConfigError("parallelogram needs gamma in (0, pi)")
        if l1 <= 0 or l2 <= 0:
            raise ConfigError("parallelogram needs positive side lengths")
        v1 = np.array([l1, 0.0])
        v2 = np.array([l2 * math.cos(gamma), l2 * math.sin(gamma)])
        verts = 0.5 * np.array([-(v1 + v2), v1 - v2, v1 + v2, v2 - v1])
        _require_in_unit_cube(verts)
        verts, closed = _ccw(verts, [False, True, True, False])
        return Template(
            "parallelogram",
            2,
            (("gamma", gamma), ("l1", l1), ("l2", l2)),
            # an invertible affine image of the square, and K0 is affine invariant
            _Poly2(verts, closed, 4.0 / 9.0),
        )

    @staticmethod
    def cylinder(r: float, h: float) -> "Template":
        if not 0.0 < r <= 0.5:
            raise ConfigError("cylinder needs 0 < r <= 1/2")
        if not 0.0 < h <= 1.0:
            raise ConfigError("cylinder needs 0 < h <= 1")
        return Template("cylinder", 3, (("r", r), ("h", h)), _Cylinder(r, h))

    # -- queries ------------------------------------------------------------

    def volume(self) -> float:
        return self.geom.volume()

    def diameter(self) -> float:
        return self.geom.diameter()

    def spec_string(self) -> str:
        if not self.params:
            return _KIND_TO_TOKEN[self.kind]
        args = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params)
        return f"{_KIND_TO_TOKEN[self.kind]}:{args}"


def _fmt_param(v):
    return format(v, "g")


_EXACT_ANGLES = (
    (0.0, 1.0, 0.0),
    (math.pi / 4, math.sqrt(0.5), math.sqrt(0.5)),
    (math.pi / 2, 0.0, 1.0),
    (3 * math.pi / 4, -math.sqrt(0.5), math.sqrt(0.5)),
    (math.pi, -1.0, 0.0),
)


def rotation_cos_sin(theta: float) -> tuple:
    """Rotation cosine/sine, snapped to exact values at the special angles.

    Library sin/cos at the floating representative of pi/4 land one ulp apart,
    which would break exact identities of rotated-rectangle weights (e.g. the
    diamond); both are approximations of the same real 1/sqrt(2).
    """
    for ang, c, s in _EXACT_ANGLES:
        if abs(theta - ang) < 4e-16:
            return c, s
    return math.cos(theta), math.sin(theta)


def _ccw(verts, closed):
    """Reorder vertices counterclockwise, keeping edge flags aligned."""
    x, y = verts[:, 0], verts[:, 1]
    signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    if signed < 0:
        n = len(verts)
        verts = verts[::-1].copy()
        # edge i: old edge between old vertices (n-1-i) and (n-i)%n
        closed = [closed[(n - 1 - i) % n] for i in range(n)]
    return verts, closed


def _require_in_unit_cube(verts):
    if np.any(np.abs(verts) > 0.5 + _EQ_TOL):
        raise ConfigError("template does not fit inside (-1/2, 1/2]^d")


_AFFINE_SUFFIX = "(affine)"


def affine_image(template: Template, mat) -> Template:
    """Template pushed through an invertible linear map (diagnostics only).

    The image is not validated against the unit cube, so it cannot be used to
    build regions or subsample specs; it exists for invariance checks of the
    numeric constants.
    """
    geom = template.geom
    mat = np.asarray(mat, float)
    if isinstance(geom, _Poly2):
        verts = geom.verts @ mat.T
        verts, closed = _ccw(verts.copy(), list(geom.closed))
        new_geom = _Poly2(verts, closed)
    else:
        new_geom = _AffineMap(geom, mat)
    return Template(template.kind + _AFFINE_SUFFIX, template.d, template.params, new_geom)


def _require_region_template(template: Template) -> None:
    # Template equality ignores the geometry, so two affine images of one
    # template compare equal; regions and specs are cache keys of designs.
    if template.kind.endswith(_AFFINE_SUFFIX):
        raise ConfigError("affine template images cannot be used to build regions")


# -- template mini-grammar ---------------------------------------------------

_KIND_TO_TOKEN = {
    "hypercube": "hypercube",
    "rotated-rectangle": "rotrect",
    "circle": "circle",
    "right-triangle": "righttri",
    "isoceles-triangle": "isotri",
    "trapezoid": "trapezoid",
    "regular-hexagon": "hex",
    "parallelogram": "parallelogram",
    "sphere": "sphere",
    "cylinder": "cylinder",
}

_TOKEN_BUILDERS = {
    "hypercube": (Template.hypercube, {"d": int}),
    "rotrect": (Template.rotated_rectangle, {"theta": float, "l1": float, "l2": float}),
    "circle": (Template.circle, {"r": float}),
    "righttri": (Template.right_triangle, {}),
    "isotri": (Template.isoceles_triangle, {}),
    "trapezoid": (Template.trapezoid, {"b1": float, "b2": float}),
    "hex": (Template.regular_hexagon, {"l": float}),
    "parallelogram": (
        Template.parallelogram,
        {"gamma": float, "l1": float, "l2": float},
    ),
    "sphere": (Template.sphere, {"r": float}),
    "cylinder": (Template.cylinder, {"r": float, "h": float}),
}


def parse_template(spec: str) -> Template:
    """Parse a template spec string, e.g. ``hypercube:d=2`` or ``circle:r=0.5``."""
    spec = spec.strip()
    token, _, argstr = spec.partition(":")
    token = token.lower()
    if token not in _TOKEN_BUILDERS:
        raise ConfigError(f"unknown template kind {token!r}")
    builder, schema = _TOKEN_BUILDERS[token]
    kwargs = {}
    if argstr:
        for part in argstr.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in schema:
                raise ConfigError(f"unknown parameter {key!r} for template {token!r}")
            if key in kwargs:
                raise ConfigError(f"parameter {key!r} is given twice for template {token!r}")
            try:
                kwargs[key] = schema[key](val)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    missing = set(schema) - set(kwargs)
    if missing:
        raise ConfigError(f"template {token!r} missing parameters {sorted(missing)}")
    return builder(**kwargs)


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def contains(template: Template, point) -> bool:
    """Membership of a point in the template under its boundary rule."""
    point = np.asarray(point, float)
    if point.shape != (template.d,):
        raise DimensionMismatch(
            f"point has shape {point.shape}, template is {template.d}-dimensional"
        )
    if not np.all(np.isfinite(point)):
        raise DimensionMismatch("point must be finite")
    return bool(template.geom.contains(point[None, :])[0])


def set_covariance(template: Template, x, resolution: float | None = None) -> float:
    """Volume of the template intersected with its translate by ``x``.

    Grid quadrature with the cell-center rule; the hypercube uses its exact
    product formula.  Default steps are 1/512 for d <= 2 and 1/96 for d = 3.
    The cells are counted by the line-run raster of ``raster_mask``: the
    intersection of two convex sets is convex.
    """
    x = np.asarray(x, float)
    if x.shape != (template.d,):
        raise DimensionMismatch("shift dimension mismatch")
    geom = template.geom
    if resolution is None:
        resolution = 1.0 / 512 if template.d <= 2 else 1.0 / 96
    lo, shape = _grid(geom, resolution)  # checks the step, also where it is unused
    if isinstance(geom, _Box):
        return geom.set_cov_exact(x)
    def both(pts):
        return geom.contains(pts) & geom.contains(pts - x)

    cells = sum(np.count_nonzero(rows) for _, rows in _line_runs(both, lo, shape, resolution))
    return float(cells) * resolution**template.d


def set_covariance_exact(template: Template, x) -> float:
    """Closed-form set covariance (product, lens or clipped-polygon formulas)."""
    x = np.asarray(x, float)
    if x.shape != (template.d,):
        raise DimensionMismatch("shift dimension mismatch")
    return float(template.geom.set_cov_exact(x))


def lattice_box(lo, hi) -> tuple:
    """int64 corners of the integer boxes ``lo <= x <= hi``, a box per row,
    from corners already on the lattice; every lattice site set is built
    from boxes that pass here.  A corner that is not finite or not an int64,
    or boxes whose build exceeds physical memory, raise ``ConfigError``: an
    allocation is not trusted to fail, as the kernel may promise memory that
    it cannot back.  A build holds at most two arrays of the points (d int64
    each) and a bool and an int64 index per point (see ``_cached_window``)."""
    corners = np.array([lo, hi], float)
    outside = ~(np.abs(corners) < 2.0**63)  # NaN is outside too
    if outside.any():
        raise ConfigError(f"lattice box corner {corners[outside][0]:g} is past the int64 range")
    lo, hi = np.asarray(lo, np.int64), np.asarray(hi, np.int64)
    points = np.prod(np.maximum(corners[1] - corners[0] + 1, 0), axis=-1).sum()
    if points * (16 * lo.shape[-1] + 9) > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"a lattice box of {points:.3g} sites does not fit in memory")
    return lo, hi


def box_points(lo, hi) -> np.ndarray:
    """Integer points of the box ``lo <= x <= hi``, shape (n, d), last axis
    fastest, each axis written in place; the corners pass ``lattice_box``."""
    lo, hi = lattice_box(lo, hi)
    shape = np.maximum(hi - lo + 1, 0).tolist()
    points = np.empty((*shape, len(shape)), np.int64)
    for j, (a, n) in enumerate(zip(lo.tolist(), shape)):
        points[..., j] = np.arange(a, a + n).reshape(-1, *[1] * (len(shape) - 1 - j))
    return points.reshape(-1, len(shape))


def _grid(geom: _Geometry, h: float):
    """Lower corner and shape of the step-``h`` cell grid over the bounding box."""
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"quadrature step must be a finite positive number, got {h!r}")
    lo, hi = geom.bbox()
    return lo, [int(math.ceil((hi[j] - lo[j]) / h - 1e-12)) for j in range(geom.d)]


def _coarse_stride(n: int) -> int:
    """Cells from one sample to the next on a raster line of ``n`` cells.

    About sqrt(n / 2), which balances a line's n / k samples against the
    2 (k - 1) cells of its two boundary gaps: 63 of 512 cells are tested.
    """
    return max(1, math.isqrt(n // 2))


def _line_runs(member, lo, shape, h: float):
    """Yield ``(start, rows)``: ``member`` at the cell centers of a block of lines.

    The grid's first-axis lines are taken in C order of their other indices;
    ``rows`` (lines, n) holds lines ``start`` onward as 0.0/1.0, in a buffer
    that the next block overwrites.  ``member`` must be the indicator of a
    convex set, which leaves a single run of inside cells on every line: the
    line is sampled at every k-th center and its last, the cells between two
    equal samples take their value, and only the cells between two samples
    that differ are tested (the whole line when no sample lands inside).  A
    block holds about ``_RASTER_BLOCK_CELLS`` cells.
    """
    n, d = shape[0], len(shape)
    axes = [(np.arange(m) + 0.5) * h + lo[j] for j, m in enumerate(shape)]
    grids = np.meshgrid(*axes[1:], indexing="ij")
    others = np.stack(grids, axis=-1).reshape(-1, d - 1) if grids else np.empty((1, 0))
    k = _coarse_stride(n)
    samples = np.unique(np.append(np.arange(0, n, k), n - 1))
    m = len(samples)
    gap = np.arange(1, k)
    cells = np.arange(n)

    def centers(first, other):
        pts = np.empty((len(other), len(first), d))
        pts[..., 0] = first
        pts[..., 1:] = other[:, None, :]
        return pts.reshape(-1, d)

    per = max(1, _RASTER_BLOCK_CELLS // n)
    buffer = np.empty((min(per, len(others)), n))
    for start in range(0, len(others), per):
        other = others[start:start + per]
        rows = buffer[:len(other)]
        inside = member(centers(axes[0][samples], other)).reshape(-1, m)
        hit = inside.any(axis=1)
        first = inside.argmax(axis=1)
        last = m - 1 - inside[:, ::-1].argmax(axis=1)
        run_lo = np.where(hit, samples[first], n)
        run_hi = samples[last]
        rows[...] = (cells >= run_lo[:, None]) & (cells <= run_hi[:, None])
        # the cells between the first inside sample and the one before it,
        # and between the last inside sample and the one after it
        before = run_lo[:, None] - gap
        before_ok = hit[:, None] & (before > samples[np.maximum(first - 1, 0)][:, None])
        after = run_hi[:, None] + gap
        after_ok = hit[:, None] & (after < samples[np.minimum(last + 1, m - 1)][:, None])
        line = np.concatenate([np.nonzero(before_ok)[0], np.nonzero(after_ok)[0]])
        cell = np.concatenate([before[before_ok], after[after_ok]])
        pts = np.empty((len(line), d))
        pts[:, 0] = axes[0][cell]
        pts[:, 1:] = other[line]
        rows[line, cell] = member(pts)
        empty = ~hit
        if empty.any():
            rows[empty] = member(centers(axes[0], other[empty])).reshape(-1, n)
        yield start, rows


def raster_lines(template: Template, step: float):
    """The cell-center indicator of ``raster_mask``, a block of lines at a time.

    Returns the grid's shape and an iterator of ``(start, rows)`` over the
    mask's first-axis lines, in C order of their other indices (see
    ``_line_runs``); ``rows`` is overwritten by the next block.
    """
    lo, shape = _grid(template.geom, step)
    return shape, _line_runs(template.geom.contains, lo, shape, step)


def raster_mask(template: Template, step: float):
    """Cell-center indicator of the template on its bounding-box grid.

    Returns (mask, step); the reference form of the shape-constant quadrature.
    Each first-axis line is rasterized as the single run of inside cells that
    a convex template leaves on it (``_line_runs``).  The mask is stored with
    its first axis innermost and returned as a view of the grid's shape, so a
    transform along the first axis reads contiguous lines.
    """
    shape, blocks = raster_lines(template, step)
    lines = np.empty((math.prod(shape[1:]), shape[0]))
    for start, rows in blocks:
        lines[start:start + len(rows)] = rows
    return np.moveaxis(lines.reshape(shape[1:] + shape[:1]), -1, 0), step


# ---------------------------------------------------------------------------
# regions and lattice windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A template inflated by a positive diagonal scaling, on a shifted lattice."""

    template: Template
    scale: tuple
    shift: tuple = None

    def __post_init__(self):
        _require_region_template(self.template)
        scale = tuple(float(s) for s in np.atleast_1d(np.asarray(self.scale, float)))
        if len(scale) == 1 and self.template.d > 1:
            scale = scale * self.template.d
        if len(scale) != self.template.d:
            raise DimensionMismatch("scaling length must match template dimension")
        if not all(math.isfinite(s) and s > 0 for s in scale):
            raise ConfigError(f"scaling entries must be positive and finite, got {scale}")
        object.__setattr__(self, "scale", scale)
        shift = self.shift
        if shift is None:
            shift = (0.0,) * self.template.d
        shift = tuple(float(t) for t in np.atleast_1d(np.asarray(shift, float)))
        if len(shift) != self.template.d:
            raise DimensionMismatch("shift length must match template dimension")
        if any(abs(t) > 0.5 for t in shift):
            raise ConfigError("lattice shift must lie in [-1/2, 1/2]^d")
        object.__setattr__(self, "shift", shift)

    @property
    def d(self) -> int:
        return self.template.d

    def det_scale(self) -> float:
        return math.prod(self.scale)  # inf past the float range, without a warning

    def volume(self) -> float:
        return self.template.volume() * self.det_scale()


@dataclass(frozen=True, eq=False)
class LatticeWindow:
    """Ordered integer lattice sites of a region (shift already subtracted).

    The window keeps its own read-only int64 copy of ``sites``; its bounding
    box and site -> row table are derived from them and kept.  Windows are
    equal, and hash alike, when their sites are equal, so a window read from
    a file matches the one ``lattice_sites`` builds.
    """

    sites: np.ndarray  # (N, d) int64, lexicographically sorted

    def __post_init__(self):
        sites = np.array(self.sites, dtype=np.int64)
        sites.setflags(write=False)
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def d(self) -> int:
        return self.sites.shape[1]

    @cached_property
    def lo(self) -> np.ndarray:
        """Low corner of the bounding box."""
        return _read_only(self.sites.min(axis=0))

    @cached_property
    def hi(self) -> np.ndarray:
        """High corner of the bounding box."""
        return _read_only(self.sites.max(axis=0))

    @property
    def span(self) -> np.ndarray:
        """Sites per axis of the bounding box."""
        return self.hi - self.lo + 1

    @cached_property
    def table(self) -> np.ndarray:
        """Row of each bounding-box site, -1 off the window; read-only."""
        lattice_box(self.lo, self.hi)  # refuses a box too big to hold
        table = np.full(tuple(self.span), -1, dtype=np.int64)
        table[tuple((self.sites - self.lo).T)] = np.arange(self.n_sites)
        return _read_only(table)

    def lookup(self, sites: np.ndarray) -> np.ndarray:
        """Row indices for integer sites; -1 where a site is outside the window."""
        rel = np.asarray(sites, np.int64) - self.lo
        ok = np.all((rel >= 0) & (rel < self.table.shape), axis=-1)
        out = np.full(rel.shape[:-1], -1, dtype=np.int64)
        out[ok] = self.table[tuple(rel[ok].T)]
        return out

    @cached_property
    def content_key(self) -> tuple:
        """(dtype, shape, bytes) of the sites, built once per window; equal
        for windows with equal site arrays."""
        return (self.sites.dtype.str, self.sites.shape, self.sites.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeWindow):
            return NotImplemented
        return self.content_key == other.content_key

    def __hash__(self) -> int:
        return hash(self.content_key)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def lattice_sites(region: Region) -> LatticeWindow:
    """All sites of the shifted integer lattice inside the inflated region.

    A window depends only on the region, so it is built once and kept in a
    bounded LRU cache keyed by the region, as the designs on it are; callers
    share the returned window, whose arrays are read-only.
    """
    return _cached_window(region)


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _cached_window(region: Region) -> LatticeWindow:
    zero = np.zeros((1, region.d))
    block, inside = _copy_patterns(region.template.geom, region.scale, region.shift, zero)
    sites = block[inside[0]]
    del block  # the window copies the sites: at most two arrays of box size at once
    if not len(sites):
        raise EmptyWindow("region contains no lattice sites")
    return LatticeWindow(sites)


def overlap_count(template: Template, s_lambda: float, k, shift=None) -> int:
    """Number of lattice sites in the scaled template shared with its k-translate."""
    if s_lambda <= 0:
        raise ConfigError("scale must be positive")
    k = np.asarray(k, np.int64)
    if k.shape != (template.d,):
        raise DimensionMismatch("lag dimension mismatch")
    region = Region(template, (float(s_lambda),) * template.d, shift)
    try:
        window = lattice_sites(region)
    except EmptyWindow:
        return 0
    return int(np.count_nonzero(window.lookup(window.sites - k) >= 0))


# ---------------------------------------------------------------------------
# subsample designs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsampleSpec:
    """Subsample template, scalar scale and scheme (``ol`` or ``nol``)."""

    template: Template
    s_lambda: float
    scheme: str = OL

    def __post_init__(self):
        _require_region_template(self.template)
        if self.scheme not in (OL, NOL):
            raise ConfigError("scheme must be 'ol' or 'nol'")
        if not (math.isfinite(self.s_lambda) and self.s_lambda > 0):
            raise ConfigError(f"subsample scale must be positive and finite, got {self.s_lambda}")

    def is_integer_scale(self) -> bool:
        return abs(self.s_lambda - round(self.s_lambda)) <= _EQ_TOL


@dataclass(frozen=True)
class SubsampleIndexSet:
    """Enumerated subsamples as site patterns at anchors.

    Subsample m holds the sites ``anchors[m] + patterns[pattern[m]]``.  A
    shared-count design has one pattern, the scaled template's sites, at
    its offsets (OL) or at the scale times them (integer NOL); a ragged one
    has a pattern per copy shape, seen from the copy's low corner.
    """

    scheme: str
    offsets: np.ndarray  # (M, d) int64, lexicographic
    counts: np.ndarray  # (M,) int64 site counts
    patterns: tuple  # (count, d) int64 site arrays, each in lexicographic order
    anchors: np.ndarray  # (M, d) int64
    pattern: np.ndarray  # (M,) int64, an index into patterns

    @property
    def n_subsamples(self) -> int:
        return self.offsets.shape[0]


def _shared_count(scheme: str, offsets, base, step: int) -> SubsampleIndexSet:
    """One site pattern, ``base``, at ``step`` times each offset."""
    first = np.zeros(len(offsets), dtype=np.int64)  # every subsample has pattern 0
    return SubsampleIndexSet(scheme, offsets, first + len(base), (base,), step * offsets, first)


def anchor_slices(cells, step: int, shape) -> tuple:
    """Per site of a pattern at ``cells``, the slices of a box that hold it
    moved to every anchor ``step * j``, ``0 <= j < shape``."""
    return tuple(
        tuple(slice(b, b + step * (n - 1) + 1, step) for b, n in zip(site, shape))
        for site in np.asarray(cells).tolist()
    )


def erode(mask: np.ndarray, cells, step: int, shape) -> np.ndarray:
    """The erosion of ``mask`` by a pattern at the anchors of ``anchor_slices``:
    the AND of one strided slice of the mask per site, each inside its box."""
    ok = np.ones(shape, bool)
    for cut in anchor_slices(cells, step, shape):
        ok &= mask[cut]
    return ok


def enumerate_ol(region: Region, spec: SubsampleSpec) -> SubsampleIndexSet:
    """All integer translates of the scaled subsample template inside the region.

    A translate is admitted when every sampling site of the scaled template
    copy is a site of the region window.  The admitted offsets are the
    erosion of the window's site mask by the template's site pattern: over
    the box of offsets that keep the pattern's bounding box inside the
    mask's, the AND of one strided slice of the mask per pattern site.  All
    overlapping subsamples share one site count.
    """
    if spec.scheme != OL:
        raise ConfigError("enumerate_ol needs an OL spec")
    sub_region = Region(spec.template, (spec.s_lambda,) * region.d, region.shift)
    base = lattice_sites(sub_region).sites
    none_fit = "no subsample translate fits inside the region"
    try:
        window = lattice_sites(region)
    except EmptyWindow:
        raise EmptySubsampleSet(none_fit) from None
    rel = base - base.min(axis=0)
    shape = np.maximum(window.span - rel.max(axis=0), 0).tolist()
    ok = erode(window.table >= 0, rel, 1, shape)
    offsets = window.lo - base.min(axis=0) + np.argwhere(ok)
    if offsets.shape[0] == 0:
        raise EmptySubsampleSet(none_fit)
    return _shared_count(OL, offsets, base, 1)


def warn_non_integer_scale() -> None:
    """Warn that a NOL design uses a non-integer scale, at the first caller
    outside the latblock package, however deep in it the design was asked for."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        "non-integer NOL scale: subsample site counts may differ and the "
        "bias/scaling theory assumes integers",
        NonIntegerScaleWarning,
        stacklevel=level,
    )


def enumerate_nol(region: Region, spec: SubsampleSpec) -> SubsampleIndexSet:
    """Disjoint scaled cubes inside the region, each holding a template copy.

    Cube i covers the sites of the scaled half-open cell centered at
    ``s_lambda * i``; it is admitted when it holds a site and all of its
    sites belong to the region window.  All cubes are tested at once: each
    cube's sites are its low corner plus a point of one common block, less
    the block points past the cube's own high corner.

    With ``s_lambda * i = n + f`` and ``n = floor(s_lambda * i)``, copy i
    is the pattern of ``f`` (the scaled sub-template's sites at lattice
    shift ``shift - f``) moved by ``n``; all patterns are tested at once.
    At an integer scale ``f = 0``: each copy is one base moved by
    ``s_lambda * i``, and an empty base raises ``EmptyWindow``.  At other
    scales copies may differ in site count, and may be empty.
    """
    if spec.scheme != NOL:
        raise ConfigError("enumerate_nol needs a NOL spec")
    if not spec.is_integer_scale():
        warn_non_integer_scale()
    s_lam = spec.s_lambda
    scale = np.asarray(region.scale)
    shift = np.asarray(region.shift)
    geom = region.template.geom
    lo_f, hi_f = geom.bbox()
    cand = box_points(np.floor(lo_f * scale / s_lam - 1), np.ceil(hi_f * scale / s_lam + 1))
    center = s_lam * cand.astype(float)
    slo, shi = lattice_box(np.ceil(center - s_lam / 2.0 - shift + _EQ_TOL),
                           np.floor(center + s_lam / 2.0 - shift + _EQ_TOL))
    span = shi - slo
    block = box_points([0] * region.d, span.max(axis=0))
    in_cube = np.all(block <= span[:, None, :], axis=-1)  # (cubes, block points)
    inside = np.empty_like(in_cube)
    per = max(1, _RASTER_BLOCK_CELLS // max(1, len(block)))  # cubes per membership test
    for at in range(0, len(slo), per):
        inside[at:at + per] = geom.contains_scaled(slo[at:at + per, None, :] + block, scale, shift)
    keep = in_cube.any(axis=1) & np.all(inside | ~in_cube, axis=1)
    offsets = cand[keep]
    if offsets.shape[0] == 0:
        raise EmptySubsampleSet("no partitioning cube fits inside the region")
    if spec.is_integer_scale():
        base = lattice_sites(Region(spec.template, (s_lam,) * region.d, region.shift)).sites
        return _shared_count(NOL, offsets, base, int(round(s_lam)))
    corner = s_lam * offsets.astype(float)
    fracs, which = np.unique(corner - np.floor(corner), axis=0, return_inverse=True)
    # numpy 2.0.0 returns ``which`` as a column; its entries are the copies' either way
    block, inside = _copy_patterns(spec.template.geom, (s_lam,) * region.d, shift, fracs)
    # each fraction's sites as bits over the block's box, seen from their low corner
    box, axes = block[-1] - block[0] + 1, set(range(1, region.d + 1))
    masks = inside.reshape(-1, *box)
    low = np.stack([masks.any(tuple(axes - {k})).argmax(1) for k in sorted(axes)], -1)
    frac, point = np.nonzero(inside)
    seen = np.zeros_like(inside)
    seen[frac, point - np.ravel_multi_index(tuple(low.T), box)[frac]] = True
    bits = np.packbits(seen, axis=1)
    keys, shape_of = np.unique(bits.view(f"V{bits.shape[1]}").ravel(), return_inverse=True)
    shapes = np.unpackbits(keys.view(np.uint8).reshape(len(keys), -1), axis=1, count=box.prod())
    patterns = tuple(np.argwhere(shape.reshape(box)) for shape in shapes)
    pattern, which = shape_of[which.reshape(-1)], which.reshape(-1)
    anchors = np.floor(corner).astype(np.int64) + block[0] + low[which]
    counts = np.count_nonzero(shapes, axis=1)[pattern]
    return SubsampleIndexSet(NOL, offsets, counts, patterns, anchors, pattern)


def _copy_patterns(geom: _Geometry, scale, shift, fracs):
    """A common block of sites, and which of them the template scaled by
    ``scale`` (per axis) holds at lattice shift ``shift - f`` for each row f
    of ``fracs`` (F, d) in [0, 1): a (F, block) mask, tested a bounded run
    of block points at a time.  A region's window is its one row at f = 0."""
    scale, shift = np.asarray(scale), np.asarray(shift)
    lo_f, hi_f = geom.bbox()
    lo = np.ceil(scale * lo_f - shift + fracs.min(axis=0) - _EQ_TOL)
    hi = np.floor(scale * hi_f - shift + fracs.max(axis=0) + _EQ_TOL)
    block = box_points(lo, np.maximum(hi, lo))  # not empty: it has a corner
    inside = np.empty((len(fracs), len(block)), bool)
    for at in range(0, len(block), _RASTER_BLOCK_CELLS):
        run = slice(at, at + _RASTER_BLOCK_CELLS)
        inside[:, run] = geom.contains_scaled(block[run], scale, (shift - fracs)[:, None, :])
    return block, inside
