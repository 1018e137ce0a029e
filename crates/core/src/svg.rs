//! Minimal SVG rendering for diagrams and examples.

use crate::vnz::NonzeroVoronoiDiagram;
use uncertain_geom::{Aabb, Circle, Point};

/// A tiny SVG canvas with world-to-screen mapping.
pub struct SvgCanvas {
    world: Aabb,
    width: f64,
    height: f64,
    body: String,
}

impl SvgCanvas {
    /// Canvas mapping the world box to `width × height` pixels.
    pub fn new(world: Aabb, width: f64) -> Self {
        let aspect = world.height() / world.width().max(1e-12);
        SvgCanvas {
            world,
            width,
            height: width * aspect,
            body: String::new(),
        }
    }

    fn tx(&self, p: Point) -> (f64, f64) {
        let x = (p.x - self.world.lo.x) / self.world.width() * self.width;
        let y = self.height - (p.y - self.world.lo.y) / self.world.height() * self.height;
        (x, y)
    }

    fn scale(&self) -> f64 {
        self.width / self.world.width()
    }

    /// Draws a circle outline (world units).
    pub fn circle(&mut self, c: &Circle, stroke: &str, fill: &str) {
        let (x, y) = self.tx(c.center);
        let r = c.radius * self.scale();
        self.body.push_str(&format!(
            "<circle cx=\"{x:.2}\" cy=\"{y:.2}\" r=\"{r:.2}\" stroke=\"{stroke}\" \
             fill=\"{fill}\" fill-opacity=\"0.15\" stroke-width=\"1\"/>\n"
        ));
    }

    /// Draws a polyline through world points.
    pub fn polyline(&mut self, pts: &[Point], stroke: &str) {
        if pts.len() < 2 {
            return;
        }
        let coords: Vec<String> = pts
            .iter()
            .map(|&p| {
                let (x, y) = self.tx(p);
                format!("{x:.2},{y:.2}")
            })
            .collect();
        self.body.push_str(&format!(
            "<polyline points=\"{}\" stroke=\"{stroke}\" fill=\"none\" stroke-width=\"1.2\"/>\n",
            coords.join(" ")
        ));
    }

    /// Draws a dot.
    pub fn dot(&mut self, p: Point, radius_px: f64, fill: &str) {
        let (x, y) = self.tx(p);
        self.body.push_str(&format!(
            "<circle cx=\"{x:.2}\" cy=\"{y:.2}\" r=\"{radius_px:.2}\" fill=\"{fill}\"/>\n"
        ));
    }

    /// Places a text label.
    pub fn text(&mut self, p: Point, s: &str, size_px: f64) {
        let (x, y) = self.tx(p);
        self.body.push_str(&format!(
            "<text x=\"{x:.2}\" y=\"{y:.2}\" font-size=\"{size_px:.1}\" \
             font-family=\"sans-serif\">{s}</text>\n"
        ));
    }

    /// Finishes the document.
    pub fn render(&self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

/// Color palette for curves.
const PALETTE: [&str; 8] = [
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#17becf",
];

/// Renders a nonzero Voronoi diagram: disks, γ curves (sampled), vertices.
pub fn render_vnz(diagram: &NonzeroVoronoiDiagram, samples_per_arc: usize) -> String {
    let disks = diagram.disks();
    let mut world = Aabb::empty();
    for d in disks {
        world.extend(Point::new(d.center.x - d.radius, d.center.y - d.radius));
        world.extend(Point::new(d.center.x + d.radius, d.center.y + d.radius));
    }
    for v in &diagram.vertices {
        world.extend(v.point);
    }
    if world.is_empty() {
        world = Aabb::from_corners(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
    }
    let world = world.inflated(0.1 * world.radius().max(1.0));
    let mut canvas = SvgCanvas::new(world, 900.0);

    for (i, d) in disks.iter().enumerate() {
        canvas.circle(d, PALETTE[i % PALETTE.len()], PALETTE[i % PALETTE.len()]);
    }
    let clip = world.radius() * 4.0;
    for c in &diagram.curves {
        let color = PALETTE[c.i % PALETTE.len()];
        for arc in &c.arcs {
            let mut pts = vec![];
            let m = samples_per_arc.max(4);
            for s in 0..=m {
                let t = arc.theta_lo + arc.width() * (s as f64 / m as f64);
                if let Some(p) = c.point_at(t.clamp(arc.theta_lo, arc.theta_hi)) {
                    if p.is_finite() && disks[c.i].center.dist(p) < clip {
                        pts.push(p);
                        continue;
                    }
                }
                // Break the polyline across invalid samples.
                if pts.len() >= 2 {
                    canvas.polyline(&pts, color);
                }
                pts.clear();
            }
            if pts.len() >= 2 {
                canvas.polyline(&pts, color);
            }
        }
    }
    for v in &diagram.vertices {
        canvas.dot(v.point, 2.5, "#000000");
    }
    canvas.render()
}

/// Renders the guaranteed Voronoi diagram (\[SE08\]) on top of the disks:
/// each nonempty region's boundary is drawn as a sampled closed/open curve.
pub fn render_guaranteed(
    disks: &[Circle],
    gv: &crate::vnz::GuaranteedVoronoi,
    samples_per_arc: usize,
) -> String {
    let mut world = Aabb::empty();
    for d in disks {
        world.extend(Point::new(
            d.center.x - 3.0 * d.radius,
            d.center.y - 3.0 * d.radius,
        ));
        world.extend(Point::new(
            d.center.x + 3.0 * d.radius,
            d.center.y + 3.0 * d.radius,
        ));
    }
    if world.is_empty() {
        world = Aabb::from_corners(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
    }
    let world = world.inflated(0.05 * world.radius().max(1.0));
    let mut canvas = SvgCanvas::new(world, 900.0);
    for (i, d) in disks.iter().enumerate() {
        canvas.circle(d, PALETTE[i % PALETTE.len()], PALETTE[i % PALETTE.len()]);
    }
    let clip = world.radius() * 3.0;
    for region in &gv.regions {
        if region.is_void() {
            continue;
        }
        let color = PALETTE[region.i % PALETTE.len()];
        let center = disks[region.i].center;
        for &(lo, hi, _) in &region.arcs {
            let mut pts = vec![];
            let m = samples_per_arc.max(4);
            for s in 0..=m {
                let t = lo + (hi - lo) * (s as f64 / m as f64);
                let r = region.radial_bound(t);
                if r.is_finite() && r < clip {
                    pts.push(center + uncertain_geom::Vector::from_angle(t) * r);
                } else {
                    if pts.len() >= 2 {
                        canvas.polyline(&pts, color);
                    }
                    pts.clear();
                }
            }
            if pts.len() >= 2 {
                canvas.polyline(&pts, color);
            }
        }
    }
    canvas.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnz::NonzeroVoronoiDiagram;

    #[test]
    fn renders_valid_svg() {
        let disks = vec![
            Circle::new(Point::new(0.0, 0.0), 1.0),
            Circle::new(Point::new(8.0, 0.0), 1.5),
            Circle::new(Point::new(4.0, 7.0), 0.8),
        ];
        let d = NonzeroVoronoiDiagram::build(disks);
        let svg = render_vnz(&d, 32);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn renders_guaranteed_svg() {
        let disks = vec![
            Circle::new(Point::new(0.0, 0.0), 1.0),
            Circle::new(Point::new(10.0, 0.0), 1.0),
            Circle::new(Point::new(5.0, 9.0), 1.0),
        ];
        let gv = crate::vnz::GuaranteedVoronoi::build(&disks);
        let svg = render_guaranteed(&disks, &gv, 48);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn canvas_primitives() {
        let world = Aabb::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
        let mut c = SvgCanvas::new(world, 500.0);
        c.dot(Point::new(5.0, 2.5), 3.0, "red");
        c.text(Point::new(1.0, 1.0), "hello", 12.0);
        c.polyline(&[Point::new(0.0, 0.0), Point::new(10.0, 5.0)], "blue");
        let svg = c.render();
        assert!(svg.contains("hello"));
        assert!(svg.contains("polyline"));
        // Aspect ratio preserved: 500 x 250.
        assert!(svg.contains("height=\"250\""));
    }
}
