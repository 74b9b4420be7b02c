//! The API semantic model.
//!
//! "For signature extraction, Extractocol utilizes semantic models for
//! commonly used Android and Java APIs for HTTP processing. … The model
//! captures the semantics of each API's operations and its parameters"
//! (§3.2). "The current implementation of Extractocol uses 39 demarcation
//! points from 16 classes and popular http libraries, including
//! org.apache.http, android.net.http, android.volley, java.net,
//! android.media, retrofit, BeeFramework, and okhttp" (§4).
//!
//! An analysis does not query the model once per call. Right after
//! indexing the program it builds a [`CalleeTable`]: each distinct callee
//! the index found ([`extractocol_ir::CalleeId`]) is resolved once,
//! through the model's ancestor walk, into its op, its demarcation spec
//! and its taint flows. Four consumers read that table by the callee id
//! of each call statement:
//!
//! * demarcation-point discovery ([`crate::demarcation`]);
//! * the taint engine's transfer for bodyless library calls
//!   ([`crate::flowmodel`]) and the model-gap lint;
//! * the signature-building abstract interpreter ([`crate::sigbuild`]),
//!   which matches on [`ApiOp`];
//! * inter-transaction dependency analysis ([`crate::interdep`]), which
//!   finds state cells and JSON keys by op.
//!
//! [`SemanticModel::op_for`] and [`SemanticModel::demarcation`] answer
//! for one call at a time; the table is built from the same resolution.
//!
//! New APIs are added with [`SemanticModel::register`] /
//! [`SemanticModel::register_dp`] — the "easy plugin for adding new API
//! semantics" the paper describes.

use extractocol_analysis::Slot;
use extractocol_http::HttpMethod;
use extractocol_ir::{CalleeId, MethodId, MethodRef, ProgramIndex};
use std::collections::HashMap;

/// Where a demarcation point's request object lives in the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpRequestLoc {
    /// The receiver (e.g. `okhttp3.Call.execute()` — the call wraps the
    /// request; `java.net.URL.openConnection()` — the URL is the request).
    Receiver,
    /// The i-th argument (e.g. `HttpClient.execute(request)`).
    Arg(usize),
}

/// Where the response surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpResponseLoc {
    /// The call's return value.
    Return,
    /// Delivered through an implicit callback parameter (Volley, retrofit
    /// `enqueue`, BeeFramework, loopj handlers) — forward seeds are planted
    /// at the callback's parameters via the callback registry.
    Callback,
    /// No app-visible response object (media players consume the stream
    /// directly; the "response goes to media player" case of Fig. 1).
    Consumed,
}

/// A demarcation-point specification.
#[derive(Clone, Debug, PartialEq)]
pub struct DpSpec {
    pub class: String,
    pub method: String,
    /// `None` matches any arity.
    pub arity: Option<usize>,
    pub request: DpRequestLoc,
    pub response: DpResponseLoc,
    /// Fixed request method implied by the DP itself (e.g. MediaPlayer and
    /// `URL.openStream` imply GET).
    pub implied_method: Option<HttpMethod>,
}

/// JSON accessor result shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonAccess {
    /// `getString`/`optString`/`asText` — a leaf value.
    Leaf,
    /// `getJSONObject`/`get` returning an object.
    Object,
    /// `getJSONArray` returning an array.
    Array,
}

/// Cells that bridge transactions through app/platform state (§5.2's
/// SQLite- and resource-mediated dependencies; `interdep` keys on these).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// `SharedPreferences` entry by key.
    Prefs,
    /// SQLite table (column granularity comes from `ContentValues` keys).
    Database,
}

/// The abstract operation a modelled API call performs.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiOp {
    // ---- demarcation points ----
    Demarcation(DpSpec),

    // ---- string construction ----
    /// `StringBuilder.<init>()` / `<init>(String)`.
    SbNew,
    /// `StringBuilder.append(x)` — returns the receiver.
    SbAppend,
    /// `StringBuilder.toString()`.
    SbToString,
    /// `String.concat(s)`.
    StrConcat,
    /// `String.trim()` and similar identity-ish transforms.
    StrIdentity,
    /// `String.valueOf(x)` / `Integer.toString(x)` — stringify.
    Stringify,
    /// `String.format(fmt, args…)`.
    StrFormat,
    /// `URLEncoder.encode(s, enc)`.
    UrlEncode,

    // ---- request objects ----
    /// `HttpGet/HttpPost/HttpPut/HttpDelete.<init>(uri)`.
    ApacheRequestNew(HttpMethod),
    /// `java.net.URL.<init>(String)`.
    UrlNew,
    /// `HttpURLConnection.setRequestMethod("POST")`.
    SetRequestMethod,
    /// `setHeader/addHeader/setRequestProperty(k, v)`.
    SetHeader,
    /// `HttpPost.setEntity(entity)` / writing a request body.
    SetBody,
    /// `UrlEncodedFormEntity.<init>(List)`.
    FormEntityNew,
    /// `BasicNameValuePair.<init>(k, v)`.
    NameValuePairNew,
    /// `StringEntity.<init>(s)`.
    StringEntityNew,
    /// `okhttp3.Request$Builder.<init>()`.
    OkBuilderNew,
    /// `Request$Builder.url(String)`.
    OkUrl,
    /// `Request$Builder.method-name(body)` for post/put/delete.
    OkMethodBody(HttpMethod),
    /// `Request$Builder.header(k, v)`.
    OkHeader,
    /// `Request$Builder.get()`.
    OkGet,
    /// `Request$Builder.build()`.
    OkBuild,
    /// `okhttp3.RequestBody.create(type, content)`.
    OkBodyCreate,
    /// `OkHttpClient.newCall(request)` — wraps request into the Call.
    OkNewCall,
    /// `com.android.volley.Request.<init>(int method, String url)` (and
    /// subclasses calling through to it).
    VolleyRequestNew,
    /// `retrofit2.CallFactory.create(method, url, body)` — our static
    /// stand-in for retrofit's reflection proxies.
    RetrofitCreate,
    /// `com.google.api.client.http.GenericUrl.<init>(String)`.
    GoogleUrlNew,
    /// `HttpRequestFactory.buildGetRequest/buildPostRequest(url[, content])`.
    GoogleBuildRequest(HttpMethod),

    // ---- response reading ----
    /// `HttpResponse.getEntity()` / `Response.body()`.
    RespEntity,
    /// `EntityUtils.toString(entity)` / `ResponseBody.string()` /
    /// stream-to-string reads.
    RespToString,
    /// `getStatusLine`/`code()`.
    RespStatus,

    // ---- JSON ----
    /// `JSONObject.<init>()` / gson `JsonObject.<init>()`.
    JsonNewObj,
    /// `JSONArray.<init>()`.
    JsonNewArr,
    /// Parse text into a JSON value (`JSONObject.<init>(String)`,
    /// `JsonParser.parse`, `JSON.parseObject`, `ObjectMapper.readTree`).
    JsonParse,
    /// `put(k, v)` / `addProperty(k, v)`.
    JsonPut,
    /// Keyed accessor; the shape of the result.
    JsonGet(JsonAccess),
    /// Array element accessor `getJSONObject(i)` / `get(i)`.
    JsonArrayGet,
    /// `JSONArray.put(v)` / `add(v)`.
    JsonArrayPut,
    /// `length()`/`size()`.
    JsonArrayLen,
    /// Serialize a JSON value to text (`JSONObject.toString`,
    /// `writeValueAsString`).
    JsonToString,
    /// Reflection-based serialization: `Gson.toJson(obj)` — the signature
    /// comes from the object's class fields (§3.2 "reflection-based nested
    /// json serialization").
    ReflectToJson,
    /// Reflection-based parsing: `Gson.fromJson(s, C.class)` /
    /// `ObjectMapper.readValue`.
    ReflectFromJson,

    // ---- XML ----
    /// Parse text into a DOM (`DocumentBuilder.parse`).
    XmlParse,
    /// `getElementsByTagName(tag)` / `getElementsByTag`.
    XmlGetElements,
    /// `Element.getAttribute(k)`.
    XmlGetAttr,
    /// `getTextContent()`.
    XmlGetText,

    // ---- containers ----
    ListNew,
    ListAdd,
    ListGet,
    MapNew,
    MapPut,
    MapGet,

    // ---- Android state cells ----
    /// `Resources.getString(R.string.x)`.
    ResGetString,
    /// `SharedPreferences.getString(key, default)`.
    CellGet(CellKind),
    /// `SharedPreferences$Editor.putString(key, v)` /
    /// `SQLiteDatabase.insert/update`.
    CellPut(CellKind),
    /// `SQLiteDatabase.query(table, …)` → Cursor.
    DbQuery,
    /// `Cursor.getString(i)`.
    CursorGet,
    /// `ContentValues.<init>()`.
    ContentValuesNew,
    /// `ContentValues.put(k, v)`.
    ContentValuesPut,

    // ---- origins and sinks (traffic characterization, §2) ----
    /// Data originating from device sensors/user: GPS, microphone, camera,
    /// text input.
    Origin(&'static str),
    /// Network data consumed by: media player, file, webview, image view.
    Sink(&'static str),

    /// Not modelled.
    Unknown,
}

/// Model entries for one `(class, method)` key: `(arity filter, op)`.
type ModelEntries = Vec<(Option<usize>, ApiOp)>;

/// The model: `(class, method)` → op, with subtype-aware lookup.
pub struct SemanticModel {
    map: HashMap<(String, String), ModelEntries>,
    dp_count: usize,
    dp_classes: std::collections::BTreeSet<String>,
}

fn pick_op(entries: &[&ApiOp]) -> ApiOp {
    entries
        .iter()
        .find(|op| !matches!(op, ApiOp::Demarcation(_)))
        .or_else(|| entries.first())
        .map(|op| (*op).clone())
        .unwrap_or(ApiOp::Unknown)
}

fn pick_dp(entries: &[&ApiOp]) -> Option<DpSpec> {
    entries.iter().find_map(|op| match op {
        ApiOp::Demarcation(spec) => Some(spec.clone()),
        _ => None,
    })
}

/// What the analysis reads about one callee.
pub(crate) struct ResolvedCallee {
    /// The op, as [`SemanticModel::op_for`] gives it.
    op: ApiOp,
    /// The demarcation spec, as [`SemanticModel::demarcation`] gives it.
    dp: Option<DpSpec>,
    /// The taint transfer of a bodyless call ([`crate::flowmodel`]).
    pub(crate) flows: Vec<(Slot, Slot)>,
}

/// The semantic model resolved against one program: one entry per
/// [`CalleeId`] of the program, resolved when the table is built.
/// [`SemanticModel`]'s lookup reads only a callee's static class, method
/// name and arity, so the entry of a callee is what the model gives for
/// it. A lookup indexes the table by the id the program records at each
/// call statement — no hashing, no clone, no lock, no allocation — so the
/// parallel workers share one table read-only.
pub struct CalleeTable {
    resolved: Vec<ResolvedCallee>,
}

impl CalleeTable {
    /// Resolves every callee of `prog` once.
    pub fn build(model: &SemanticModel, prog: &ProgramIndex<'_>) -> CalleeTable {
        let resolved = (0..prog.callee_count() as u32)
            .map(|i| model.resolve(prog, prog.callee(CalleeId(i))))
            .collect();
        CalleeTable { resolved }
    }

    pub(crate) fn get(&self, callee: CalleeId) -> &ResolvedCallee {
        &self.resolved[callee.0 as usize]
    }

    /// The op for a callee ([`SemanticModel::op_for`]).
    pub fn op(&self, callee: CalleeId) -> &ApiOp {
        &self.get(callee).op
    }

    /// The op of the call at statement `stmt` of `method`;
    /// [`ApiOp::Unknown`] when that statement is not a call.
    pub fn op_at(&self, prog: &ProgramIndex<'_>, method: MethodId, stmt: usize) -> &ApiOp {
        prog.callee_at(method, stmt).map_or(&ApiOp::Unknown, |c| self.op(c))
    }

    /// The demarcation spec if this callee is a DP
    /// ([`SemanticModel::demarcation`]).
    pub fn dp(&self, callee: CalleeId) -> Option<&DpSpec> {
        self.get(callee).dp.as_ref()
    }
}

impl SemanticModel {
    /// Builds the full default model.
    pub fn standard() -> SemanticModel {
        let mut m =
            SemanticModel { map: HashMap::new(), dp_count: 0, dp_classes: Default::default() };
        m.install_strings();
        m.install_apache_http();
        m.install_java_net();
        m.install_volley();
        m.install_okhttp();
        m.install_retrofit();
        m.install_google_http();
        m.install_bee_loopj_kevinsawicki();
        m.install_media();
        m.install_json();
        m.install_xml();
        m.install_containers();
        m.install_android_state();
        m.install_origins_sinks();
        m
    }

    /// Registers an op for `class.method` (the plugin hook).
    pub fn register(&mut self, class: &str, method: &str, arity: Option<usize>, op: ApiOp) {
        self.map.entry((class.to_string(), method.to_string())).or_default().push((arity, op));
    }

    /// Registers a demarcation point.
    pub fn register_dp(
        &mut self,
        class: &str,
        method: &str,
        arity: Option<usize>,
        request: DpRequestLoc,
        response: DpResponseLoc,
        implied_method: Option<HttpMethod>,
    ) {
        self.dp_count += 1;
        self.dp_classes.insert(class.to_string());
        let spec = DpSpec {
            class: class.to_string(),
            method: method.to_string(),
            arity,
            request,
            response,
            implied_method,
        };
        self.register(class, method, arity, ApiOp::Demarcation(spec));
    }

    /// Number of registered demarcation points (the paper's count is 39).
    pub fn dp_count(&self) -> usize {
        self.dp_count
    }

    /// Number of distinct classes contributing demarcation points (16).
    pub fn dp_class_count(&self) -> usize {
        self.dp_classes.len()
    }

    /// All model entries matching a call, walking the static receiver
    /// class's superclass chain and interfaces through the program's stubs
    /// (so a call typed at `DefaultHttpClient` finds the `HttpClient`
    /// model).
    fn entries_for<'m>(&'m self, prog: &ProgramIndex<'_>, callee: &MethodRef) -> Vec<&'m ApiOp> {
        let mut classes: Vec<String> = vec![callee.class.clone()];
        // Walk superclasses and interfaces breadth-first.
        let mut i = 0;
        while i < classes.len() {
            if let Some(cid) = prog.class_id(&classes[i]) {
                let c = prog.class(cid);
                if let Some(s) = &c.superclass {
                    if !classes.contains(s) {
                        classes.push(s.clone());
                    }
                }
                for itf in &c.interfaces {
                    if !classes.contains(itf) {
                        classes.push(itf.clone());
                    }
                }
            }
            i += 1;
        }
        let mut out = Vec::new();
        for cn in &classes {
            if let Some(entries) = self.map.get(&(cn.clone(), callee.name.clone())) {
                for (arity, op) in entries {
                    if arity.map(|a| a == callee.params.len()).unwrap_or(true) {
                        out.push(op);
                    }
                }
            }
            if !out.is_empty() {
                break; // most-derived class wins
            }
        }
        out
    }

    /// The op for a call. Non-DP semantics win over a DP registered for
    /// the same method (e.g. `newCall` both wraps the request and is a
    /// boundary; interpretation uses the wrap, discovery uses the DP).
    pub fn op_for(&self, prog: &ProgramIndex<'_>, callee: &MethodRef) -> ApiOp {
        pick_op(&self.entries_for(prog, callee))
    }

    /// The demarcation spec if this call is a DP.
    pub fn demarcation(&self, prog: &ProgramIndex<'_>, callee: &MethodRef) -> Option<DpSpec> {
        pick_dp(&self.entries_for(prog, callee))
    }

    /// Everything the analysis reads about a call, from one ancestor walk.
    fn resolve(&self, prog: &ProgramIndex<'_>, callee: &MethodRef) -> ResolvedCallee {
        let entries = self.entries_for(prog, callee);
        let op = pick_op(&entries);
        let flows = crate::flowmodel::op_flows(&op, callee);
        ResolvedCallee { op, dp: pick_dp(&entries), flows }
    }

    // ---- installation of the standard model --------------------------------

    fn install_strings(&mut self) {
        let sb = "java.lang.StringBuilder";
        self.register(sb, "<init>", None, ApiOp::SbNew);
        self.register(sb, "append", None, ApiOp::SbAppend);
        self.register(sb, "toString", None, ApiOp::SbToString);
        let s = "java.lang.String";
        self.register(s, "concat", None, ApiOp::StrConcat);
        self.register(s, "trim", None, ApiOp::StrIdentity);
        self.register(s, "toLowerCase", None, ApiOp::StrIdentity);
        self.register(s, "toString", None, ApiOp::StrIdentity);
        self.register(s, "valueOf", None, ApiOp::Stringify);
        self.register(s, "format", None, ApiOp::StrFormat);
        self.register("java.lang.Integer", "toString", None, ApiOp::Stringify);
        self.register("java.lang.Long", "toString", None, ApiOp::Stringify);
        self.register("java.lang.Double", "toString", None, ApiOp::Stringify);
        self.register("java.net.URLEncoder", "encode", None, ApiOp::UrlEncode);
    }

    fn install_apache_http(&mut self) {
        for (cls, method) in [
            ("org.apache.http.client.methods.HttpGet", HttpMethod::Get),
            ("org.apache.http.client.methods.HttpPost", HttpMethod::Post),
            ("org.apache.http.client.methods.HttpPut", HttpMethod::Put),
            ("org.apache.http.client.methods.HttpDelete", HttpMethod::Delete),
        ] {
            self.register(cls, "<init>", None, ApiOp::ApacheRequestNew(method));
            self.register(cls, "setHeader", Some(2), ApiOp::SetHeader);
            self.register(cls, "addHeader", Some(2), ApiOp::SetHeader);
            self.register(cls, "setEntity", Some(1), ApiOp::SetBody);
        }
        self.register(
            "org.apache.http.client.entity.UrlEncodedFormEntity",
            "<init>",
            None,
            ApiOp::FormEntityNew,
        );
        self.register(
            "org.apache.http.message.BasicNameValuePair",
            "<init>",
            Some(2),
            ApiOp::NameValuePairNew,
        );
        self.register(
            "org.apache.http.entity.StringEntity",
            "<init>",
            None,
            ApiOp::StringEntityNew,
        );
        self.register("org.apache.http.HttpResponse", "getEntity", Some(0), ApiOp::RespEntity);
        self.register("org.apache.http.HttpResponse", "getStatusLine", Some(0), ApiOp::RespStatus);
        self.register("org.apache.http.HttpEntity", "getContent", Some(0), ApiOp::RespEntity);
        self.register("org.apache.http.util.EntityUtils", "toString", None, ApiOp::RespToString);
        // commons-io stream draining, ubiquitous with java.net connections.
        self.register("org.apache.commons.io.IOUtils", "toString", None, ApiOp::RespToString);

        // DP class 1: org.apache.http.client.HttpClient — 4 execute overloads.
        let hc = "org.apache.http.client.HttpClient";
        self.register_dp(hc, "execute", Some(1), DpRequestLoc::Arg(0), DpResponseLoc::Return, None);
        self.register_dp(hc, "execute", Some(2), DpRequestLoc::Arg(0), DpResponseLoc::Return, None);
        self.register_dp(hc, "execute", Some(3), DpRequestLoc::Arg(1), DpResponseLoc::Return, None);
        self.register_dp(hc, "execute", Some(4), DpRequestLoc::Arg(1), DpResponseLoc::Return, None);
        // DP class 2: DefaultHttpClient (same overloads, reached directly
        // when apps type receivers concretely).
        let dhc = "org.apache.http.impl.client.DefaultHttpClient";
        self.register_dp(
            dhc,
            "execute",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            dhc,
            "execute",
            Some(2),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            dhc,
            "execute",
            Some(3),
            DpRequestLoc::Arg(1),
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            dhc,
            "execute",
            Some(4),
            DpRequestLoc::Arg(1),
            DpResponseLoc::Return,
            None,
        );
        // DP class 3: android.net.http.AndroidHttpClient.
        let ahc = "android.net.http.AndroidHttpClient";
        self.register_dp(
            ahc,
            "execute",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            ahc,
            "execute",
            Some(2),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            ahc,
            "execute",
            Some(3),
            DpRequestLoc::Arg(1),
            DpResponseLoc::Return,
            None,
        );
    }

    fn install_java_net(&mut self) {
        self.register("java.net.URL", "<init>", Some(1), ApiOp::UrlNew);
        // DP class 4: java.net.URL.
        self.register_dp(
            "java.net.URL",
            "openConnection",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            "java.net.URL",
            "openStream",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            Some(HttpMethod::Get),
        );
        self.register_dp(
            "java.net.URL",
            "getContent",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            Some(HttpMethod::Get),
        );
        // DP class 5: java.net.HttpURLConnection.
        let huc = "java.net.HttpURLConnection";
        self.register(huc, "setRequestMethod", Some(1), ApiOp::SetRequestMethod);
        self.register(huc, "setRequestProperty", Some(2), ApiOp::SetHeader);
        self.register_dp(
            huc,
            "connect",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            huc,
            "getInputStream",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            huc,
            "getOutputStream",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        // DP class 6: java.net.URLConnection.
        let uc = "java.net.URLConnection";
        self.register(uc, "setRequestProperty", Some(2), ApiOp::SetHeader);
        self.register_dp(
            uc,
            "getInputStream",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            uc,
            "getContent",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
    }

    fn install_volley(&mut self) {
        self.register("com.android.volley.Request", "<init>", None, ApiOp::VolleyRequestNew);
        // JsonObjectRequest(method, url, jsonBody, listener, errListener)
        self.register(
            "com.android.volley.toolbox.JsonObjectRequest",
            "<init>",
            None,
            ApiOp::VolleyRequestNew,
        );
        self.register(
            "com.android.volley.toolbox.StringRequest",
            "<init>",
            None,
            ApiOp::VolleyRequestNew,
        );
        // DP class 7: com.android.volley.RequestQueue.
        self.register_dp(
            "com.android.volley.RequestQueue",
            "add",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Callback,
            None,
        );
    }

    fn install_okhttp(&mut self) {
        let b = "okhttp3.Request$Builder";
        self.register(b, "<init>", Some(0), ApiOp::OkBuilderNew);
        self.register(b, "url", Some(1), ApiOp::OkUrl);
        self.register(b, "get", Some(0), ApiOp::OkGet);
        self.register(b, "post", Some(1), ApiOp::OkMethodBody(HttpMethod::Post));
        self.register(b, "put", Some(1), ApiOp::OkMethodBody(HttpMethod::Put));
        self.register(b, "delete", None, ApiOp::OkMethodBody(HttpMethod::Delete));
        self.register(b, "header", Some(2), ApiOp::OkHeader);
        self.register(b, "addHeader", Some(2), ApiOp::OkHeader);
        self.register(b, "build", Some(0), ApiOp::OkBuild);
        self.register("okhttp3.RequestBody", "create", None, ApiOp::OkBodyCreate);
        self.register("okhttp3.Response", "body", Some(0), ApiOp::RespEntity);
        self.register("okhttp3.Response", "code", Some(0), ApiOp::RespStatus);
        self.register("okhttp3.ResponseBody", "string", Some(0), ApiOp::RespToString);
        // DP class 8: okhttp3.OkHttpClient.
        self.register("okhttp3.OkHttpClient", "newCall", Some(1), ApiOp::OkNewCall);
        self.register_dp(
            "okhttp3.OkHttpClient",
            "newCall",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
        // DP class 9: okhttp3.Call.
        self.register_dp(
            "okhttp3.Call",
            "execute",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            "okhttp3.Call",
            "enqueue",
            Some(1),
            DpRequestLoc::Receiver,
            DpResponseLoc::Callback,
            None,
        );
        // DP class 10: okhttp2 (com.squareup.okhttp).
        self.register_dp(
            "com.squareup.okhttp.OkHttpClient",
            "newCall",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
    }

    fn install_retrofit(&mut self) {
        self.register("retrofit2.CallFactory", "create", None, ApiOp::RetrofitCreate);
        // DP class 11: retrofit2.Call.
        self.register_dp(
            "retrofit2.Call",
            "execute",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            "retrofit2.Call",
            "enqueue",
            Some(1),
            DpRequestLoc::Receiver,
            DpResponseLoc::Callback,
            None,
        );
        self.register("retrofit2.Response", "body", Some(0), ApiOp::RespEntity);
    }

    fn install_google_http(&mut self) {
        self.register(
            "com.google.api.client.http.GenericUrl",
            "<init>",
            Some(1),
            ApiOp::GoogleUrlNew,
        );
        let f = "com.google.api.client.http.HttpRequestFactory";
        self.register(f, "buildGetRequest", Some(1), ApiOp::GoogleBuildRequest(HttpMethod::Get));
        self.register(f, "buildPostRequest", Some(2), ApiOp::GoogleBuildRequest(HttpMethod::Post));
        // DP class 12: com.google.api.client.http.HttpRequest.
        let r = "com.google.api.client.http.HttpRequest";
        self.register_dp(
            r,
            "execute",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Return,
            None,
        );
        self.register_dp(
            r,
            "executeAsync",
            Some(0),
            DpRequestLoc::Receiver,
            DpResponseLoc::Callback,
            None,
        );
    }

    fn install_bee_loopj_kevinsawicki(&mut self) {
        // DP class 13: BeeFramework.
        let bee = "com.beeframework.Bee";
        self.register_dp(
            bee,
            "get",
            Some(2),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Callback,
            Some(HttpMethod::Get),
        );
        self.register_dp(
            bee,
            "post",
            Some(3),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Callback,
            Some(HttpMethod::Post),
        );
        // DP class 15: loopj android-async-http.
        let loopj = "com.loopj.android.http.AsyncHttpClient";
        self.register_dp(
            loopj,
            "get",
            Some(2),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Callback,
            Some(HttpMethod::Get),
        );
        self.register_dp(
            loopj,
            "get",
            Some(3),
            DpRequestLoc::Arg(1),
            DpResponseLoc::Callback,
            Some(HttpMethod::Get),
        );
        self.register_dp(
            loopj,
            "post",
            Some(3),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Callback,
            Some(HttpMethod::Post),
        );
        self.register_dp(
            loopj,
            "post",
            Some(4),
            DpRequestLoc::Arg(1),
            DpResponseLoc::Callback,
            Some(HttpMethod::Post),
        );
        // DP class 16: kevinsawicki http-request.
        let ks = "com.github.kevinsawicki.http.HttpRequest";
        self.register_dp(
            ks,
            "get",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            Some(HttpMethod::Get),
        );
        self.register_dp(
            ks,
            "post",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            Some(HttpMethod::Post),
        );
        self.register_dp(
            ks,
            "put",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            Some(HttpMethod::Put),
        );
        self.register(ks, "body", Some(0), ApiOp::RespToString);
    }

    fn install_media(&mut self) {
        // DP class 14: android.media.MediaPlayer — the stream URI *is* the
        // request; the response is consumed by the player (Fig. 1, RR #6).
        let mp = "android.media.MediaPlayer";
        self.register_dp(
            mp,
            "setDataSource",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Consumed,
            Some(HttpMethod::Get),
        );
        self.register_dp(
            mp,
            "create",
            Some(2),
            DpRequestLoc::Arg(1),
            DpResponseLoc::Consumed,
            Some(HttpMethod::Get),
        );
    }

    fn install_json(&mut self) {
        // org.json
        let jo = "org.json.JSONObject";
        self.register(jo, "<init>", Some(0), ApiOp::JsonNewObj);
        self.register(jo, "<init>", Some(1), ApiOp::JsonParse);
        self.register(jo, "put", Some(2), ApiOp::JsonPut);
        self.register(jo, "getString", Some(1), ApiOp::JsonGet(JsonAccess::Leaf));
        self.register(jo, "optString", None, ApiOp::JsonGet(JsonAccess::Leaf));
        self.register(jo, "getInt", Some(1), ApiOp::JsonGet(JsonAccess::Leaf));
        self.register(jo, "getBoolean", Some(1), ApiOp::JsonGet(JsonAccess::Leaf));
        self.register(jo, "getJSONObject", Some(1), ApiOp::JsonGet(JsonAccess::Object));
        self.register(jo, "getJSONArray", Some(1), ApiOp::JsonGet(JsonAccess::Array));
        self.register(jo, "toString", Some(0), ApiOp::JsonToString);
        let ja = "org.json.JSONArray";
        self.register(ja, "<init>", Some(0), ApiOp::JsonNewArr);
        self.register(ja, "<init>", Some(1), ApiOp::JsonParse);
        self.register(ja, "getJSONObject", Some(1), ApiOp::JsonArrayGet);
        self.register(ja, "get", Some(1), ApiOp::JsonArrayGet);
        self.register(ja, "length", Some(0), ApiOp::JsonArrayLen);
        self.register(ja, "put", Some(1), ApiOp::JsonArrayPut);
        self.register(ja, "toString", Some(0), ApiOp::JsonToString);
        // gson
        let gson = "com.google.gson.Gson";
        self.register(gson, "toJson", None, ApiOp::ReflectToJson);
        self.register(gson, "fromJson", Some(2), ApiOp::ReflectFromJson);
        let gjo = "com.google.gson.JsonObject";
        self.register(gjo, "<init>", Some(0), ApiOp::JsonNewObj);
        self.register(gjo, "addProperty", Some(2), ApiOp::JsonPut);
        self.register(gjo, "get", Some(1), ApiOp::JsonGet(JsonAccess::Leaf));
        self.register(gjo, "getAsJsonObject", Some(1), ApiOp::JsonGet(JsonAccess::Object));
        self.register(gjo, "getAsJsonArray", Some(1), ApiOp::JsonGet(JsonAccess::Array));
        self.register("com.google.gson.JsonParser", "parse", Some(1), ApiOp::JsonParse);
        // jackson (fasterxml + legacy codehaus)
        for om in
            ["com.fasterxml.jackson.databind.ObjectMapper", "org.codehaus.jackson.map.ObjectMapper"]
        {
            self.register(om, "readTree", Some(1), ApiOp::JsonParse);
            self.register(om, "readValue", Some(2), ApiOp::ReflectFromJson);
            self.register(om, "writeValueAsString", Some(1), ApiOp::ReflectToJson);
        }
        let jn = "com.fasterxml.jackson.databind.JsonNode";
        self.register(jn, "get", Some(1), ApiOp::JsonGet(JsonAccess::Object));
        self.register(jn, "path", Some(1), ApiOp::JsonGet(JsonAccess::Object));
        self.register(jn, "asText", Some(0), ApiOp::JsonToString);
        // fastjson
        self.register("com.alibaba.fastjson.JSON", "parseObject", Some(1), ApiOp::JsonParse);
        let fjo = "com.alibaba.fastjson.JSONObject";
        self.register(fjo, "getString", Some(1), ApiOp::JsonGet(JsonAccess::Leaf));
        self.register(fjo, "getJSONObject", Some(1), ApiOp::JsonGet(JsonAccess::Object));
        self.register(fjo, "getJSONArray", Some(1), ApiOp::JsonGet(JsonAccess::Array));
        self.register(fjo, "put", Some(2), ApiOp::JsonPut);
        self.register(fjo, "toJSONString", Some(0), ApiOp::JsonToString);
    }

    fn install_xml(&mut self) {
        self.register("javax.xml.parsers.DocumentBuilder", "parse", None, ApiOp::XmlParse);
        for cls in ["org.w3c.dom.Document", "org.w3c.dom.Element"] {
            self.register(cls, "getElementsByTagName", Some(1), ApiOp::XmlGetElements);
            self.register(cls, "getAttribute", Some(1), ApiOp::XmlGetAttr);
            self.register(cls, "getTextContent", Some(0), ApiOp::XmlGetText);
        }
        self.register("org.w3c.dom.NodeList", "item", Some(1), ApiOp::JsonArrayGet);
        self.register("android.util.Xml", "parse", None, ApiOp::XmlParse);
        self.register("org.xmlpull.v1.XmlPullParser", "getName", Some(0), ApiOp::XmlGetText);
    }

    fn install_containers(&mut self) {
        for cls in ["java.util.ArrayList", "java.util.LinkedList", "java.util.List"] {
            self.register(cls, "<init>", None, ApiOp::ListNew);
            self.register(cls, "add", Some(1), ApiOp::ListAdd);
            self.register(cls, "get", Some(1), ApiOp::ListGet);
        }
        for cls in ["java.util.HashMap", "java.util.Map"] {
            self.register(cls, "<init>", None, ApiOp::MapNew);
            self.register(cls, "put", Some(2), ApiOp::MapPut);
            self.register(cls, "get", Some(1), ApiOp::MapGet);
        }
    }

    fn install_android_state(&mut self) {
        self.register("android.content.res.Resources", "getString", Some(1), ApiOp::ResGetString);
        self.register(
            "android.content.SharedPreferences",
            "getString",
            Some(2),
            ApiOp::CellGet(CellKind::Prefs),
        );
        self.register(
            "android.content.SharedPreferences$Editor",
            "putString",
            Some(2),
            ApiOp::CellPut(CellKind::Prefs),
        );
        let db = "android.database.sqlite.SQLiteDatabase";
        self.register(db, "insert", Some(3), ApiOp::CellPut(CellKind::Database));
        self.register(db, "update", Some(4), ApiOp::CellPut(CellKind::Database));
        self.register(db, "query", None, ApiOp::DbQuery);
        self.register("android.database.Cursor", "getString", Some(1), ApiOp::CursorGet);
        self.register("android.content.ContentValues", "<init>", Some(0), ApiOp::ContentValuesNew);
        self.register("android.content.ContentValues", "put", Some(2), ApiOp::ContentValuesPut);
    }

    fn install_origins_sinks(&mut self) {
        self.register("android.location.Location", "getLatitude", Some(0), ApiOp::Origin("gps"));
        self.register("android.location.Location", "getLongitude", Some(0), ApiOp::Origin("gps"));
        self.register("android.location.Location", "getCity", Some(0), ApiOp::Origin("gps"));
        self.register("android.media.AudioRecord", "read", None, ApiOp::Origin("microphone"));
        self.register("android.hardware.Camera", "takePicture", None, ApiOp::Origin("camera"));
        self.register("android.widget.EditText", "getText", Some(0), ApiOp::Origin("user-input"));
        self.register("java.io.FileOutputStream", "write", None, ApiOp::Sink("file"));
        self.register("android.webkit.WebView", "loadUrl", Some(1), ApiOp::Sink("webview"));
        self.register(
            "android.widget.ImageView",
            "setImageBitmap",
            Some(1),
            ApiOp::Sink("image-view"),
        );
        self.register("android.media.MediaPlayer", "start", Some(0), ApiOp::Sink("media-player"));
        self.register("android.media.MediaPlayer", "prepare", Some(0), ApiOp::Sink("media-player"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_ir::{ApkBuilder, Type};

    fn empty_prog_apk() -> extractocol_ir::Apk {
        ApkBuilder::new("t", "t").build()
    }

    #[test]
    fn dp_counts_match_the_paper() {
        let m = SemanticModel::standard();
        assert_eq!(m.dp_count(), 39, "paper §4: 39 demarcation points");
        assert_eq!(m.dp_class_count(), 16, "paper §4: from 16 classes");
    }

    #[test]
    fn direct_lookup_finds_ops() {
        let apk = empty_prog_apk();
        let prog = ProgramIndex::new(&apk);
        let m = SemanticModel::standard();
        let append = MethodRef::new(
            "java.lang.StringBuilder",
            "append",
            vec![Type::string()],
            Type::object("java.lang.StringBuilder"),
        );
        assert_eq!(m.op_for(&prog, &append), ApiOp::SbAppend);
        let exec = MethodRef::new(
            "org.apache.http.client.HttpClient",
            "execute",
            vec![Type::object("org.apache.http.client.methods.HttpUriRequest")],
            Type::object("org.apache.http.HttpResponse"),
        );
        assert!(matches!(m.op_for(&prog, &exec), ApiOp::Demarcation(_)));
        assert!(m.demarcation(&prog, &exec).is_some());
    }

    #[test]
    fn lookup_walks_superclasses_through_stubs() {
        let mut b = ApkBuilder::new("t", "t");
        b.class("org.apache.http.client.HttpClient", |c| {
            c.stub_method("execute", vec![Type::obj_root()], Type::obj_root());
        });
        b.class("my.custom.Client", |c| {
            c.extends("org.apache.http.client.HttpClient");
        });
        let apk = b.build();
        let prog = ProgramIndex::new(&apk);
        let m = SemanticModel::standard();
        let call =
            MethodRef::new("my.custom.Client", "execute", vec![Type::obj_root()], Type::obj_root());
        let dp = m.demarcation(&prog, &call).expect("inherited DP");
        assert_eq!(dp.request, DpRequestLoc::Arg(0));
        assert_eq!(dp.response, DpResponseLoc::Return);
    }

    #[test]
    fn arity_disambiguates_overloads() {
        let apk = empty_prog_apk();
        let prog = ProgramIndex::new(&apk);
        let m = SemanticModel::standard();
        // execute(host, req): the request is Arg(1).
        let exec3 = MethodRef::new(
            "org.apache.http.client.HttpClient",
            "execute",
            vec![Type::obj_root(), Type::obj_root(), Type::obj_root()],
            Type::obj_root(),
        );
        let dp = m.demarcation(&prog, &exec3).unwrap();
        assert_eq!(dp.request, DpRequestLoc::Arg(1));
    }

    #[test]
    fn plugin_registration_extends_the_model() {
        let apk = empty_prog_apk();
        let prog = ProgramIndex::new(&apk);
        let mut m = SemanticModel::standard();
        let before = m.dp_count();
        m.register_dp(
            "my.lib.Net",
            "fire",
            Some(1),
            DpRequestLoc::Arg(0),
            DpResponseLoc::Return,
            None,
        );
        assert_eq!(m.dp_count(), before + 1);
        let call = MethodRef::new("my.lib.Net", "fire", vec![Type::string()], Type::obj_root());
        assert!(m.demarcation(&prog, &call).is_some());
    }

    #[test]
    fn unmodelled_calls_are_unknown() {
        let apk = empty_prog_apk();
        let prog = ProgramIndex::new(&apk);
        let m = SemanticModel::standard();
        let call = MethodRef::new("com.example.Foo", "bar", vec![], Type::Void);
        assert_eq!(m.op_for(&prog, &call), ApiOp::Unknown);
    }
}
