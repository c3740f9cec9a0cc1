"""Grid-stage planner: time-expanded flow graph with downwash conflicts.

The formation change is first solved on the grid.  Robots move in lock
step; at every step a robot waits or moves to a free 6-neighbor cell.  A
synchronized plan with K steps is exactly a unit flow of value N through
a time-expanded graph with K+1 layers:

 * every free cell v and layer k get a vertex pair u(v,k) -> w(v,k), and
   the unit edges between layers bound cell occupancy at one robot,
 * a move along an environment edge {v1, v2} during step k is one of two
   directed arcs, u(v1,k) -> w(v2,k) or u(v2,k) -> w(v1,k),
 * the hold arc w(v,k) -> u(v,k+1) holds the robot that occupies v at
   index k+1.

The graph is arrays: (K+1, V) reachability masks select the vertices,
vertex ids are arithmetic in (v, k), and every arc is one entry of two
integer columns, tail and head, in a fixed layout of slots that the
arcs' existence mask selects.  The start and goal cell ids, and hop
distances from them, come once per scenario, the distances from scipy's
csgraph.  The source arcs are the first arcs, in start order, so the
paths of a routed flow come out in robot order.

Rules that unit capacities cannot express become conflict rows of a
binary program, one row a + b <= 1 per conflicting pair of arcs: the two
moves along one edge in one step would swap two robots; cells in the same
vertical column closer than the ellipsoid height must not hold robots at
the same time (a pair of hold arcs); and the same horizontal grid edge
must not be crossed in opposite directions at nearby heights in the same
step (a pair of move arcs).  Maximizing routed flow subject to
conservation and those rows gives the minimum number of steps.  The
search over K starts at a lower bound: the first K, walking up from the
hop bound, whose max flow without the rows routes every robot.  That flow
may swap two robots, which two waits would replace at the same value,
and only its value is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import opt_engine
from .opt_engine import BinaryILP, FlowNetwork, ILPInfeasibleError

# flow network terminals; every other vertex id is a u or w vertex
SOURCE = 0
SINK = 1

# the makespan search gives up beyond this many times the grid's Manhattan
# diameter in steps
_STEP_CAP_PER_DIAMETER = 10


class DiscreteInfeasibleError(Exception):
    """No synchronized grid plan exists within the step budget."""


class EnvironmentGraph:
    """Free cells of a scenario, the adjacency between them, the ids of the
    robots' start and goal cells (starts, goals) in robot order, and every
    cell's hop distance from the nearest start and from the nearest goal
    (inf where unreachable)."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.cells = scenario.free_cells()
        num_cells = len(self.cells)
        self.coords = np.array(self.cells, dtype=np.intp).reshape(num_cells, 3)
        # dense grid of cell ids, -1 where blocked
        self.cell_id = np.full(scenario.grid.dims, -1, dtype=np.intp)
        self.cell_id[tuple(self.coords.T)] = np.arange(num_cells)
        self.starts, self.goals = (
            self.cell_id[tuple(np.array(cells).T)] for cells in (scenario.starts, scenario.goals)
        )

        # edges run from a cell to its neighbor one step up an axis, ordered
        # by cell, then axis
        up = np.full((num_cells, 3), -1, dtype=np.intp)
        for axis in range(3):
            step = self.coords.copy()
            step[:, axis] += 1
            inside = step[:, axis] < self.cell_id.shape[axis]
            up[inside, axis] = self.cell_id[tuple(step[inside].T)]
        tails, self.edge_axis = np.nonzero(up >= 0)
        self.edges = np.stack([tails, up[tails, self.edge_axis]], axis=1)
        self.edge_id = np.full((num_cells, 3), -1, dtype=np.intp)
        self.edge_id[tails, self.edge_axis] = np.arange(len(tails))

        self.adjacency = sparse.csr_matrix(
            (np.ones(len(tails)), tuple(self.edges.T)), shape=(num_cells, num_cells)
        )
        self.start_dist, self.goal_dist = (
            csgraph.dijkstra(
                self.adjacency, directed=False, unweighted=True, min_only=True, indices=seeds
            )
            for seeds in (self.starts, self.goals)
        )

    def above(self, cells, dz):
        """Ids of the cells dz levels above the given cell ids; -1 where
        that cell is blocked or outside the grid."""
        x, y, z = self.coords[cells].T
        z = z + dz
        out = np.full(len(z), -1, dtype=np.intp)
        inside = z < self.cell_id.shape[2]
        out[inside] = self.cell_id[x[inside], y[inside], z[inside]]
        return out

    def edges_above(self, edges, dz):
        """Ids of the parallel edges dz levels above; -1 where none."""
        v = self.above(self.edges[edges, 0], dz)
        return np.where(v >= 0, self.edge_id[v, self.edge_axis[edges]], -1)


def _check_goal_reachability(scenario, env):
    """Goals must be coverable by the starts component by component."""
    count, labels = csgraph.connected_components(env.adjacency, directed=False)
    start_labels, goal_labels = labels[env.starts], labels[env.goals]
    start_counts = np.bincount(start_labels, minlength=count)
    goal_counts = np.bincount(goal_labels, minlength=count)
    for g, comp in zip(scenario.goals, goal_labels):
        if start_counts[comp] == 0:
            raise DiscreteInfeasibleError(
                f"goal cell {g} is unreachable from every start"
            )
        if goal_counts[comp] > start_counts[comp]:
            raise DiscreteInfeasibleError(
                f"the region containing goal cell {g} holds "
                f"{goal_counts[comp]} goals but only {start_counts[comp]} starts"
            )


class TimeExpandedGraph:
    """K+1 layer expansion of the environment for one candidate makespan.

    Layers are pruned by reachability: an arc exists only if its tail can
    be reached from some start in time and its head can still reach some
    goal, which leaves the routable flow unchanged.

    Arcs fill a fixed layout of slots, in the order a robot passes them:
    one source arc per start, in start order, num_sources of them, so a
    flow that routes every robot decomposes into paths in robot order
    (extract_paths); then per step k a row of step_slots, V intra slots
    u(v,k) -> w(v,k) (by cell), 2E move slots (edge e's are 2e,
    u(v1,k) -> w(v2,k), and 2e + 1, u(v2,k) -> w(v1,k)) and V hold slots
    w(v,k) -> u(v,k+1) (by cell); then the last layer's intra slots and
    one sink slot per goal.  step_slots is
    the (K, 2V + 2E) mask of the step slots that hold an arc, so an
    arc's id is a running count of the slots that exist.  A u or w
    vertex id is 2 + cell plus a multiple of V, so an arc ends in cell
    (head - 2) mod V, and a sink arc leaves goal cell (tail - 2) mod V.
    """

    def __init__(self, scenario, env, K):
        self.scenario = scenario
        self.env = env
        self.K = K
        num_cells = len(env.cells)
        num_edges = len(env.edges)
        starts, goal_cells = env.starts, env.goals
        self.goal_index = np.full(num_cells, -1, dtype=np.intp)
        self.goal_index[goal_cells] = np.arange(len(goal_cells))

        layer = np.arange(K + 1)[:, None]
        cell = np.arange(num_cells)[None, :]
        # u(v,k): reachable from a start by step k, can reach a goal in time
        u_ok = (env.start_dist <= layer) & (env.goal_dist <= K - layer)
        # w(v,k) feeds u(v,k+1); in the last layer only reachable goals stay
        w_ok = np.zeros_like(u_ok)
        w_ok[:K] = u_ok[1:]
        w_ok[K, goal_cells] = env.start_dist[goal_cells] <= K
        u_id = 2 + layer * num_cells + cell
        w_id = u_id + (K + 1) * num_cells

        # an edge {v1, v2} has two move slots per step, u(v1,k) -> w(v2,k)
        # and u(v2,k) -> w(v1,k)
        v1, v2 = env.edges.T
        move_ok = np.stack([u_ok[:K, v1] & w_ok[:K, v2], u_ok[:K, v2] & w_ok[:K, v1]], axis=-1)

        # one slot per possible arc, in arc order
        self.step_slots = np.concatenate(
            [(u_ok & w_ok)[:K], move_ok.reshape(K, 2 * num_edges), w_ok[:K]], axis=1
        )
        exists = (u_ok[0, starts], self.step_slots, u_ok[K] & w_ok[K], w_ok[K, goal_cells])
        self.num_sources = int(exists[0].sum())

        def column(source, intra, move, hold, sink):
            """One end of every arc, given its vertex in every slot of each
            block."""
            intra = np.broadcast_to(intra, (K + 1, num_cells))
            move = np.broadcast_to(move, (K, num_edges, 2)).reshape(K, 2 * num_edges)
            steps = np.concatenate(
                [intra[:K], move, np.broadcast_to(hold, (K, num_cells))], axis=1
            )
            values = (
                np.broadcast_to(source, starts.shape),
                steps,
                intra[K],
                np.broadcast_to(sink, goal_cells.shape),
            )
            return np.concatenate([v[ok] for v, ok in zip(values, exists)])

        def slots(*values):
            return np.stack(np.broadcast_arrays(*values), axis=-1)

        self.tails = column(
            SOURCE, u_id, slots(u_id[:K, v1], u_id[:K, v2]), w_id[:K], w_id[K, goal_cells]
        )
        self.heads = column(
            u_id[0, starts], w_id, slots(w_id[:K, v2], w_id[:K, v1]), u_id[1:], SINK
        )
        self.num_vertices = 2 + 2 * (K + 1) * num_cells

    def flow_network(self):
        """The arcs as a unit-capacity network for the max-flow bound.

        A network has no side rows, so it admits swaps, but its max flow is
        the same with or without them: a swap's two moves exist only where
        both intra arcs u(v1,k) -> w(v1,k) and u(v2,k) -> w(v2,k) do, and
        two waits fill the same w vertices and hold arcs.
        """
        return FlowNetwork(
            num_vertices=self.num_vertices,
            edges=np.stack([self.tails, self.heads], axis=1),
            source=SOURCE,
            sink=SINK,
        )

    def _conflict_pairs(self):
        """Downwash conflicts as arc index pairs, each unordered pair once;
        the binary program holds one row per pair.

        Swap rule: the two moves along one edge in one step exclude each
        other, on every axis.  Column rule: two robots may share an xy
        column only with vertical clearance of a full ellipsoid height.
        Crossing rule: one horizontal grid edge crossed in both directions
        during the same step collides at the midpoint unless the two
        heights clear the same margin.  Touching exactly at the margin is
        allowed, hence the strict threshold.  Vertical moves need no
        crossing rule: their endpoints fall under the column rule.
        """
        env = self.env
        num_cells, num_edges = len(env.cells), len(env.edges)
        cs = self.scenario.grid.cell_size
        threshold = 2.0 * self.scenario.radii[2] - 1e-9

        # arc ids of each step's move and hold slots, -1 where no arc: a
        # running count of the step slots, after the source arcs
        ok = self.step_slots
        counts = ok.sum(axis=1)
        first = self.num_sources + np.cumsum(counts) - counts + ok[:, :num_cells].sum(axis=1)
        ids = first[:, None] - 1 + np.cumsum(ok[:, num_cells:], axis=1)
        ids[~ok[:, num_cells:]] = -1
        move, hold = ids[:, : 2 * num_edges], ids[:, 2 * num_edges :]

        def partners(table, slot, target):
            """(table[k, slot], table[k, target]) for every step k where
            target >= 0 and both arcs exist."""
            has = target >= 0
            a, b = table[:, slot[has]], table[:, target[has]]
            both = (a >= 0) & (b >= 0)
            return np.stack([a[both], b[both]], axis=1)

        # a swap is the two move slots of one edge: 2e and 2e + 1
        pairs = [partners(move, np.arange(0, 2 * num_edges, 2), np.arange(1, 2 * num_edges, 2))]
        flat = np.flatnonzero(env.edge_axis != 2)
        flat_slots = (2 * flat[:, None] + (0, 1)).ravel()
        cells = np.arange(num_cells)
        dz = 1
        while dz * cs < threshold:
            pairs.append(partners(hold, cells, env.above(cells, dz)))
            # move slot s crosses the slot 1 - s of the parallel edge above
            up = env.edges_above(flat, dz)[:, None]
            pairs.append(partners(move, flat_slots, np.where(up >= 0, 2 * up + (1, 0), -1).ravel()))
            dz += 1
        return np.concatenate(pairs)

    def binary_program(self):
        """Maximize routed flow: one conservation row per u and w vertex,
        and one conflict row a + b <= 1 per conflicting pair."""
        n = len(self.tails)
        c = np.zeros(n)
        c[: self.num_sources] = 1.0

        # conservation rows in order of each vertex's first appearance,
        # scanning arcs in order and each arc's head before its tail
        ends = np.stack([self.heads, self.tails], axis=1).ravel()
        cols = np.repeat(np.arange(n), 2)
        vals = np.tile([1.0, -1.0], n)
        inner = ends > SINK
        ends, cols, vals = ends[inner], cols[inner], vals[inner]
        _, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.intp)
        rank[np.argsort(first)] = np.arange(len(first))
        A_eq = sparse.csr_matrix((vals, (rank[inverse], cols)), shape=(len(first), n))
        b_eq = np.zeros(len(first))

        # conflict rows in sorted (min, max) order; one integer key per pair
        # sorts faster than np.unique over rows
        low, high = np.sort(self._conflict_pairs(), axis=1).T
        pairs = np.stack(np.divmod(np.unique(low * n + high), n), axis=1)
        m = len(pairs)
        A_in = sparse.csr_matrix(
            (np.ones(2 * m), (np.repeat(np.arange(m), 2), pairs.ravel())), shape=(m, n)
        )
        b_in = np.ones(m)
        return BinaryILP(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)

    def extract_paths(self, z):
        """Decompose an integral unit flow into one cell path per robot.

        Every u and w vertex passes at most one unit, so following the
        flow from each source arc is unambiguous: one intra or move arc
        per step, then the hold into the next layer.  Returns the paths as
        cell ids, one per routed source arc in start order, and each one's
        goal index.
        """
        active = np.flatnonzero(np.asarray(z) > 0.5)
        out_degree = np.bincount(self.tails[active], minlength=self.num_vertices)
        successor = np.full(self.num_vertices, -1, dtype=np.intp)
        successor[self.tails[active]] = active

        def step(vertices):
            bad = out_degree[vertices] != 1
            if bad.any():
                vertex = vertices[bad][0]
                raise opt_engine.SolverError(
                    f"flow decomposition expected one outgoing unit at "
                    f"vertex {vertex}, found {out_degree[vertex]}"
                )
            return successor[vertices]

        num_cells = len(self.env.cells)
        arc = active[active < self.num_sources]
        path = [(self.heads[arc] - 2) % num_cells]
        vertex = self.heads[arc]
        for _ in range(self.K):
            arc = step(vertex)
            path.append((self.heads[arc] - 2) % num_cells)
            vertex = self.heads[step(self.heads[arc])]
        final = step(vertex)
        sink = step(self.heads[final])
        paths = np.stack(path, axis=1).tolist()
        return paths, self.goal_index[(self.tails[sink] - 2) % num_cells].tolist()


@dataclass
class DiscretePlan:
    """Synchronized waypoint plan: one position per robot per time index.

    waypoints holds world coordinates with shape (robots, steps + 1, 3).
    cell_paths keeps the raw grid indices the plan came from; refinement
    stages leave it untouched so the provenance of the waypoints stays
    inspectable.
    """

    dt: float
    waypoints: np.ndarray
    assignment: list
    cell_paths: list | None = None

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 3 or self.waypoints.shape[2] != 3:
            raise ValueError("waypoints must have shape (robots, steps + 1, 3)")
        self.assignment = [int(a) for a in self.assignment]

    @property
    def num_robots(self):
        return self.waypoints.shape[0]

    @property
    def num_segments(self):
        return self.waypoints.shape[1] - 1

    @property
    def duration(self):
        return self.dt * self.num_segments

    def postprocessed(self):
        """Halve every segment and pad both ends with a standstill step.

        The midpoint split makes each new segment cover half a grid move,
        which the corridor construction needs, and the padded ends give
        the smooth trajectories room to accelerate from and brake to rest
        without leaving the first and last cells early.
        """
        wp = self.waypoints
        n, t1, _ = wp.shape
        doubled = np.empty((n, 2 * t1 - 1, 3))
        doubled[:, 0::2] = wp
        doubled[:, 1::2] = 0.5 * (wp[:, :-1] + wp[:, 1:])
        padded = np.concatenate([doubled[:, :1], doubled, doubled[:, -1:]], axis=1)
        return DiscretePlan(
            dt=0.5 * self.dt,
            waypoints=padded,
            assignment=self.assignment,
            cell_paths=self.cell_paths,
        )

    def to_dict(self):
        return {
            "dt": self.dt,
            "assignment": list(self.assignment),
            "waypoints": self.waypoints.tolist(),
            "cell_paths": self.cell_paths,
        }

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, data):
        cell_paths = data.get("cell_paths")
        if cell_paths is not None:
            cell_paths = [[tuple(c) for c in path] for path in cell_paths]
        return cls(
            dt=data["dt"],
            waypoints=np.asarray(data["waypoints"], dtype=float),
            assignment=data["assignment"],
            cell_paths=cell_paths,
        )

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


def check_discrete_rules(cell_paths, scenario):
    """All motion rules a synchronized grid plan must satisfy.

    Returns a list of human-readable violations; an empty list means the
    plan is valid.  Used by tests and as a cheap self-check after the
    flow decomposition.
    """
    problems = []
    n = len(cell_paths)
    if n != scenario.num_robots:
        return [f"plan has {n} paths for {scenario.num_robots} robots"]
    lengths = {len(p) for p in cell_paths}
    if len(lengths) != 1:
        return [f"paths have mixed lengths {sorted(lengths)}"]
    steps = lengths.pop() - 1

    cs = scenario.grid.cell_size
    threshold = 2.0 * scenario.radii[2] - 1e-9

    for i, path in enumerate(cell_paths):
        if tuple(path[0]) != scenario.starts[i]:
            problems.append(f"robot {i} starts at {path[0]} instead of {scenario.starts[i]}")
        for k in range(steps):
            a, b = tuple(path[k]), tuple(path[k + 1])
            delta = sorted(abs(x - y) for x, y in zip(a, b))
            if delta not in ([0, 0, 0], [0, 0, 1]):
                problems.append(f"robot {i} makes an illegal move {a} -> {b} at step {k}")
            if not scenario.is_free(b):
                problems.append(f"robot {i} enters blocked cell {b} at step {k + 1}")
        if not scenario.is_free(tuple(path[0])):
            problems.append(f"robot {i} starts in blocked cell {path[0]}")

    finals = sorted(tuple(p[-1]) for p in cell_paths)
    if finals != sorted(scenario.goals):
        problems.append(f"final cells {finals} are not the goal set")

    for k in range(steps + 1):
        positions = [tuple(p[k]) for p in cell_paths]
        for i in range(n):
            for j in range(i + 1, n):
                a, b = positions[i], positions[j]
                if a == b:
                    problems.append(f"robots {i} and {j} share cell {a} at index {k}")
                elif a[:2] == b[:2] and abs(a[2] - b[2]) * cs < threshold:
                    problems.append(
                        f"robots {i} and {j} stack too closely in column "
                        f"{a[:2]} at index {k}"
                    )

    for k in range(steps):
        for i in range(n):
            for j in range(i + 1, n):
                a1, b1 = tuple(cell_paths[i][k]), tuple(cell_paths[i][k + 1])
                a2, b2 = tuple(cell_paths[j][k]), tuple(cell_paths[j][k + 1])
                if a1 == b2 and a2 == b1 and a1 != a2:
                    problems.append(f"robots {i} and {j} swap cells at step {k}")
                elif (
                    a1[:2] == b2[:2]
                    and b1[:2] == a2[:2]
                    and a1[:2] != b1[:2]
                    and abs(a1[2] - b2[2]) * cs < threshold
                    and abs(b1[2] - a2[2]) * cs < threshold
                ):
                    problems.append(
                        f"robots {i} and {j} cross the same edge "
                        f"{a1[:2]} - {b1[:2]} in opposite directions at step {k}"
                    )
    return problems


def _step_cap(scenario):
    """Largest makespan the search tries."""
    return max(1, _STEP_CAP_PER_DIAMETER * scenario.grid.manhattan_diameter)


def lower_bound_makespan(scenario, env=None):
    """Smallest K whose conflict-free time expansion routes all robots.

    Downwash rows only remove flow, so this bounds the true optimum from
    below.  No K below the hop bound routes every robot: the farthest
    start's distance to its nearest goal, or the farthest goal's distance
    to its nearest start.  Robots can wait at their goals, so a K that
    routes them all stays routable above it, and the walk up from the hop
    bound returns the first such K.
    """
    env = env or EnvironmentGraph(scenario)
    _check_goal_reachability(scenario, env)
    cap = _step_cap(scenario)
    # inf where some start reaches no goal
    hops = max(env.goal_dist[env.starts].max(), env.start_dist[env.goals].max())
    for K in range(int(min(hops, cap + 1)), cap + 1):
        network = TimeExpandedGraph(scenario, env, K).flow_network()
        if opt_engine.max_flow(network) >= scenario.num_robots:
            return K
    raise DiscreteInfeasibleError(
        f"not all robots can reach goals within {cap} steps; the grid may be "
        f"too congested"
    )


def solve_discrete(scenario):
    """Makespan-optimal synchronized grid plan for a scenario.

    Searches K upward from the flow lower bound; the first K whose
    conflict-constrained program routes all robots is optimal.
    """
    env = EnvironmentGraph(scenario)
    lb = lower_bound_makespan(scenario, env)
    cap = _step_cap(scenario)
    n = scenario.num_robots

    for K in range(lb, cap + 1):
        graph = TimeExpandedGraph(scenario, env, K)
        try:
            result = opt_engine.solve_ilp(graph.binary_program(), target=n)
        except ILPInfeasibleError:
            continue
        # the source arcs come in start order, so the paths are in robot order
        paths, assignment = graph.extract_paths(result.z)
        coords = env.coords[paths]
        cell_paths = [[tuple(c) for c in p] for p in coords.tolist()]
        problems = check_discrete_rules(cell_paths, scenario)
        if problems:
            raise opt_engine.SolverError(
                "flow solution violates motion rules: " + "; ".join(problems[:3])
            )
        return DiscretePlan(
            dt=scenario.dt,
            waypoints=scenario.grid.cell_centers(coords).reshape(coords.shape),
            assignment=assignment,
            cell_paths=cell_paths,
        )
    raise DiscreteInfeasibleError(f"no conflict-free grid plan within {cap} steps")
