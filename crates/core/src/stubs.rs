//! Canonical platform and library stub classes.
//!
//! Real APKs resolve calls against `android.jar` and bundled library jars;
//! our corpus apps include these *bodyless stubs* instead, so that
//!
//! * CHA and the callback registry can resolve override relationships
//!   (e.g. `doInBackground` overriding `android.os.AsyncTask`),
//! * the ProGuard-style obfuscator knows which override names to keep,
//! * and the de-obfuscation mapper (§3.4) has reference method *shapes*
//!   to match renamed library classes against —
//!   [`library_reference`] returns exactly the third-party classes
//!   (marked `is_library`) that ship inside an APK and may be obfuscated
//!   with it; platform classes never are.
//!
//! Every corpus app calls [`install`] first.

use extractocol_ir::{ApkBuilder, Class, ClassBuilder, Type};
use std::sync::OnceLock;

fn obj() -> Type {
    Type::obj_root()
}

fn s() -> Type {
    Type::string()
}

fn o(n: &str) -> Type {
    Type::object(n)
}

/// Installs all platform and library stubs into an APK under construction.
pub fn install(b: &mut ApkBuilder) {
    platform(b);
    apache_http(b);
    libraries(b);
}

fn platform(b: &mut ApkBuilder) {
    b.class("java.lang.Object", |c| {
        c.no_super();
    });
    b.class("java.lang.StringBuilder", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("<init>", vec![s()], Type::Void)
            .stub_method("append", vec![obj()], o("java.lang.StringBuilder"))
            .stub_method("toString", vec![], s());
    });
    b.class("java.lang.Thread", |c| {
        c.stub_method("<init>", vec![o("java.lang.Runnable")], Type::Void).stub_method(
            "start",
            vec![],
            Type::Void,
        );
    });
    b.iface("java.lang.Runnable", |c| {
        c.stub_method("run", vec![], Type::Void);
    });
    b.iface("java.util.concurrent.Callable", |c| {
        c.stub_method("call", vec![], obj());
    });
    b.class("java.util.Timer", |c| {
        c.stub_method("<init>", vec![], Type::Void).stub_method(
            "schedule",
            vec![o("java.util.TimerTask"), Type::Long],
            Type::Void,
        );
    });
    b.class("java.util.TimerTask", |c| {
        c.implements("java.lang.Runnable");
        c.stub_method("run", vec![], Type::Void);
    });
    b.class("java.util.ArrayList", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("add", vec![obj()], Type::Bool)
            .stub_method("get", vec![Type::Int], obj());
    });
    b.class("java.util.HashMap", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("put", vec![obj(), obj()], obj())
            .stub_method("get", vec![obj()], obj());
    });
    b.class("java.net.URL", |c| {
        c.stub_method("<init>", vec![s()], Type::Void)
            .stub_method("openConnection", vec![], o("java.net.HttpURLConnection"))
            .stub_method("openStream", vec![], o("java.io.InputStream"));
    });
    b.class("java.net.URLConnection", |c| {
        c.stub_method("getInputStream", vec![], o("java.io.InputStream")).stub_method(
            "setRequestProperty",
            vec![s(), s()],
            Type::Void,
        );
    });
    b.class("java.net.HttpURLConnection", |c| {
        c.extends("java.net.URLConnection");
        c.stub_method("setRequestMethod", vec![s()], Type::Void)
            .stub_method("getInputStream", vec![], o("java.io.InputStream"))
            .stub_method("getOutputStream", vec![], o("java.io.OutputStream"))
            .stub_method("connect", vec![], Type::Void);
    });
    b.class("java.net.URLEncoder", |c| {
        c.stub_method("encode", vec![s(), s()], s());
    });
    b.class("java.io.InputStream", |c| {
        c.stub_method("read", vec![], Type::Int);
    });
    b.class("java.io.OutputStream", |c| {
        c.stub_method("write", vec![Type::Byte.array_of()], Type::Void);
    });
    b.class("java.io.FileOutputStream", |c| {
        c.extends("java.io.OutputStream");
        c.stub_method("<init>", vec![s()], Type::Void).stub_method(
            "write",
            vec![Type::Byte.array_of()],
            Type::Void,
        );
    });

    // Android components and services.
    b.class("android.app.Activity", |c| {
        c.stub_method("onCreate", vec![o("android.os.Bundle")], Type::Void)
            .stub_method("onResume", vec![], Type::Void)
            .stub_method("findViewById", vec![Type::Int], o("android.view.View"))
            .stub_method("getResources", vec![], o("android.content.res.Resources"));
    });
    b.class("android.app.Service", |c| {
        c.stub_method(
            "onStartCommand",
            vec![o("android.content.Intent"), Type::Int, Type::Int],
            Type::Int,
        );
    });
    b.class("android.content.BroadcastReceiver", |c| {
        c.stub_method(
            "onReceive",
            vec![o("android.content.Context"), o("android.content.Intent")],
            Type::Void,
        );
    });
    b.class("android.os.AsyncTask", |c| {
        c.stub_method("execute", vec![obj()], Type::Void)
            .stub_method("doInBackground", vec![obj()], obj())
            .stub_method("onPostExecute", vec![obj()], Type::Void)
            .stub_method("onPreExecute", vec![], Type::Void);
    });
    b.class("android.os.Handler", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("post", vec![o("java.lang.Runnable")], Type::Bool)
            .stub_method("postDelayed", vec![o("java.lang.Runnable"), Type::Long], Type::Bool);
    });
    b.class("android.view.View", |c| {
        c.stub_method(
            "setOnClickListener",
            vec![o("android.view.View$OnClickListener")],
            Type::Void,
        );
    });
    b.iface("android.view.View$OnClickListener", |c| {
        c.stub_method("onClick", vec![o("android.view.View")], Type::Void);
    });
    b.class("android.location.LocationManager", |c| {
        c.stub_method(
            "requestLocationUpdates",
            vec![s(), Type::Long, Type::Float, o("android.location.LocationListener")],
            Type::Void,
        );
    });
    b.iface("android.location.LocationListener", |c| {
        c.stub_method("onLocationChanged", vec![o("android.location.Location")], Type::Void);
    });
    b.class("android.location.Location", |c| {
        c.stub_method("getLatitude", vec![], Type::Double)
            .stub_method("getLongitude", vec![], Type::Double)
            .stub_method("getCity", vec![], s());
    });
    b.class("android.widget.EditText", |c| {
        c.extends("android.view.View");
        c.stub_method("getText", vec![], s());
    });
    b.class("android.widget.ImageView", |c| {
        c.extends("android.view.View");
        c.stub_method("setImageBitmap", vec![obj()], Type::Void);
    });
    b.class("android.webkit.WebView", |c| {
        c.extends("android.view.View");
        c.stub_method("loadUrl", vec![s()], Type::Void);
    });
    b.class("android.media.MediaPlayer", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("setDataSource", vec![s()], Type::Void)
            .stub_method("prepare", vec![], Type::Void)
            .stub_method("start", vec![], Type::Void);
    });
    b.class("android.media.AudioRecord", |c| {
        c.stub_method("read", vec![Type::Byte.array_of(), Type::Int, Type::Int], Type::Int);
    });
    b.class("android.content.res.Resources", |c| {
        c.stub_method("getString", vec![s()], s());
    });
    b.class("android.content.SharedPreferences", |c| {
        c.stub_method("getString", vec![s(), s()], s()).stub_method(
            "edit",
            vec![],
            o("android.content.SharedPreferences$Editor"),
        );
    });
    b.class("android.content.SharedPreferences$Editor", |c| {
        c.stub_method("putString", vec![s(), s()], o("android.content.SharedPreferences$Editor"))
            .stub_method("apply", vec![], Type::Void);
    });
    b.class("android.database.sqlite.SQLiteDatabase", |c| {
        c.stub_method("insert", vec![s(), s(), o("android.content.ContentValues")], Type::Long)
            .stub_method(
                "update",
                vec![s(), o("android.content.ContentValues"), s(), s().array_of()],
                Type::Int,
            )
            .stub_method("query", vec![s(), s().array_of(), s()], o("android.database.Cursor"));
    });
    b.class("android.database.Cursor", |c| {
        c.stub_method("getString", vec![Type::Int], s()).stub_method(
            "moveToNext",
            vec![],
            Type::Bool,
        );
    });
    b.class("android.content.ContentValues", |c| {
        c.stub_method("<init>", vec![], Type::Void).stub_method(
            "put",
            vec![s(), obj()],
            Type::Void,
        );
    });

    // org.json ships in the platform.
    b.class("org.json.JSONObject", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("<init>", vec![s()], Type::Void)
            .stub_method("put", vec![s(), obj()], o("org.json.JSONObject"))
            .stub_method("getString", vec![s()], s())
            .stub_method("optString", vec![s()], s())
            .stub_method("getInt", vec![s()], Type::Int)
            .stub_method("getBoolean", vec![s()], Type::Bool)
            .stub_method("getJSONObject", vec![s()], o("org.json.JSONObject"))
            .stub_method("getJSONArray", vec![s()], o("org.json.JSONArray"))
            .stub_method("toString", vec![], s());
    });
    b.class("org.json.JSONArray", |c| {
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("<init>", vec![s()], Type::Void)
            .stub_method("length", vec![], Type::Int)
            .stub_method("getJSONObject", vec![Type::Int], o("org.json.JSONObject"))
            .stub_method("put", vec![obj()], o("org.json.JSONArray"))
            .stub_method("toString", vec![], s());
    });

    // W3C DOM (platform XML).
    b.class("javax.xml.parsers.DocumentBuilder", |c| {
        c.stub_method("parse", vec![obj()], o("org.w3c.dom.Document"));
    });
    b.class("org.w3c.dom.Document", |c| {
        c.stub_method("getElementsByTagName", vec![s()], o("org.w3c.dom.NodeList"));
    });
    b.class("org.w3c.dom.Element", |c| {
        c.stub_method("getElementsByTagName", vec![s()], o("org.w3c.dom.NodeList"))
            .stub_method("getAttribute", vec![s()], s())
            .stub_method("getTextContent", vec![], s());
    });
    b.class("org.w3c.dom.NodeList", |c| {
        c.stub_method("item", vec![Type::Int], o("org.w3c.dom.Element")).stub_method(
            "getLength",
            vec![],
            Type::Int,
        );
    });
}

fn apache_http(b: &mut ApkBuilder) {
    b.iface("org.apache.http.client.HttpClient", |c| {
        c.stub_method(
            "execute",
            vec![o("org.apache.http.client.methods.HttpUriRequest")],
            o("org.apache.http.HttpResponse"),
        );
    });
    b.class("org.apache.http.impl.client.DefaultHttpClient", |c| {
        c.implements("org.apache.http.client.HttpClient");
        c.stub_method("<init>", vec![], Type::Void).stub_method(
            "execute",
            vec![o("org.apache.http.client.methods.HttpUriRequest")],
            o("org.apache.http.HttpResponse"),
        );
    });
    b.class("android.net.http.AndroidHttpClient", |c| {
        c.implements("org.apache.http.client.HttpClient");
        c.stub_method("newInstance", vec![s()], o("android.net.http.AndroidHttpClient"))
            .stub_method(
                "execute",
                vec![o("org.apache.http.client.methods.HttpUriRequest")],
                o("org.apache.http.HttpResponse"),
            );
    });
    b.class("org.apache.http.client.methods.HttpUriRequest", |c| {
        c.stub_method("setHeader", vec![s(), s()], Type::Void).stub_method(
            "addHeader",
            vec![s(), s()],
            Type::Void,
        );
    });
    for m in ["HttpGet", "HttpPost", "HttpPut", "HttpDelete"] {
        let name = format!("org.apache.http.client.methods.{m}");
        b.class(&name, |c: &mut ClassBuilder| {
            c.extends("org.apache.http.client.methods.HttpUriRequest");
            c.stub_method("<init>", vec![s()], Type::Void)
                .stub_method("setHeader", vec![s(), s()], Type::Void)
                .stub_method("setEntity", vec![o("org.apache.http.HttpEntity")], Type::Void);
        });
    }
    b.class("org.apache.http.HttpResponse", |c| {
        c.stub_method("getEntity", vec![], o("org.apache.http.HttpEntity")).stub_method(
            "getStatusLine",
            vec![],
            obj(),
        );
    });
    b.class("org.apache.http.HttpEntity", |c| {
        c.stub_method("getContent", vec![], o("java.io.InputStream"));
    });
    b.class("org.apache.http.util.EntityUtils", |c| {
        c.stub_method("toString", vec![o("org.apache.http.HttpEntity")], s());
    });
    b.class("org.apache.commons.io.IOUtils", |c| {
        c.stub_method("toString", vec![o("java.io.InputStream")], s());
    });
    // An unmodeled ad/analytics library doing its own socket I/O — the
    // §5.1 "missed messages" source. Not in the semantic model on purpose.
    b.class("com.adlib.Tracker", |c| {
        c.library();
        c.stub_method("send", vec![s()], Type::Void).stub_method(
            "sendPost",
            vec![s(), s()],
            Type::Void,
        );
    });
    b.class("org.apache.http.client.entity.UrlEncodedFormEntity", |c| {
        c.extends("org.apache.http.HttpEntity");
        c.stub_method("<init>", vec![o("java.util.ArrayList")], Type::Void);
    });
    b.class("org.apache.http.entity.StringEntity", |c| {
        c.extends("org.apache.http.HttpEntity");
        c.stub_method("<init>", vec![s()], Type::Void);
    });
    b.class("org.apache.http.message.BasicNameValuePair", |c| {
        c.stub_method("<init>", vec![s(), s()], Type::Void);
    });
}

/// Bundled third-party libraries (subject to obfuscation, `is_library`).
fn libraries(b: &mut ApkBuilder) {
    b.class("okhttp3.OkHttpClient", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void).stub_method(
            "newCall",
            vec![o("okhttp3.Request")],
            o("okhttp3.Call"),
        );
    });
    b.class("okhttp3.Request", |c| {
        c.library();
    });
    b.class("okhttp3.Request$Builder", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("url", vec![s()], o("okhttp3.Request$Builder"))
            .stub_method("get", vec![], o("okhttp3.Request$Builder"))
            .stub_method("post", vec![o("okhttp3.RequestBody")], o("okhttp3.Request$Builder"))
            .stub_method("put", vec![o("okhttp3.RequestBody")], o("okhttp3.Request$Builder"))
            .stub_method("delete", vec![], o("okhttp3.Request$Builder"))
            .stub_method("header", vec![s(), s()], o("okhttp3.Request$Builder"))
            .stub_method("build", vec![], o("okhttp3.Request"));
    });
    b.class("okhttp3.RequestBody", |c| {
        c.library();
        c.stub_method("create", vec![o("okhttp3.MediaType"), s()], o("okhttp3.RequestBody"));
    });
    b.class("okhttp3.MediaType", |c| {
        c.library();
        c.stub_method("parse", vec![s()], o("okhttp3.MediaType"));
    });
    b.class("okhttp3.Call", |c| {
        c.library();
        c.stub_method("execute", vec![], o("okhttp3.Response")).stub_method(
            "enqueue",
            vec![o("okhttp3.Callback")],
            Type::Void,
        );
    });
    b.iface("okhttp3.Callback", |c| {
        c.library();
        c.stub_method("onResponse", vec![o("okhttp3.Call"), o("okhttp3.Response")], Type::Void)
            .stub_method("onFailure", vec![o("okhttp3.Call"), obj()], Type::Void);
    });
    b.class("okhttp3.Response", |c| {
        c.library();
        c.stub_method("body", vec![], o("okhttp3.ResponseBody")).stub_method(
            "code",
            vec![],
            Type::Int,
        );
    });
    b.class("okhttp3.ResponseBody", |c| {
        c.library();
        c.stub_method("string", vec![], s());
    });

    b.class("com.android.volley.RequestQueue", |c| {
        c.library();
        c.stub_method(
            "add",
            vec![o("com.android.volley.Request")],
            o("com.android.volley.Request"),
        );
    });
    b.class("com.android.volley.Request", |c| {
        c.library();
        c.stub_method("<init>", vec![Type::Int, s()], Type::Void)
            .stub_method("deliverResponse", vec![obj()], Type::Void)
            .stub_method("parseNetworkResponse", vec![obj()], obj());
    });
    b.class("com.android.volley.toolbox.JsonObjectRequest", |c| {
        c.library();
        c.extends("com.android.volley.Request");
        c.stub_method("<init>", vec![Type::Int, s(), o("org.json.JSONObject")], Type::Void);
    });
    b.class("com.android.volley.toolbox.StringRequest", |c| {
        c.library();
        c.extends("com.android.volley.Request");
        c.stub_method("<init>", vec![Type::Int, s()], Type::Void);
    });
    b.class("com.android.volley.toolbox.Volley", |c| {
        c.library();
        c.stub_method("newRequestQueue", vec![obj()], o("com.android.volley.RequestQueue"));
    });

    b.class("retrofit2.CallFactory", |c| {
        c.library();
        c.stub_method("create", vec![s(), s(), obj()], o("retrofit2.Call"));
    });
    b.class("retrofit2.Call", |c| {
        c.library();
        c.stub_method("execute", vec![], o("retrofit2.Response")).stub_method(
            "enqueue",
            vec![o("retrofit2.Callback")],
            Type::Void,
        );
    });
    b.iface("retrofit2.Callback", |c| {
        c.library();
        c.stub_method("onResponse", vec![o("retrofit2.Call"), o("retrofit2.Response")], Type::Void)
            .stub_method("onFailure", vec![o("retrofit2.Call"), obj()], Type::Void);
    });
    b.class("retrofit2.Response", |c| {
        c.library();
        c.stub_method("body", vec![], obj());
    });

    b.class("com.google.gson.Gson", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("toJson", vec![obj()], s())
            .stub_method("fromJson", vec![s(), o("java.lang.Class")], obj());
    });
    b.class("com.google.gson.JsonObject", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("addProperty", vec![s(), s()], Type::Void)
            .stub_method("get", vec![s()], obj());
    });

    b.class("com.fasterxml.jackson.databind.ObjectMapper", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("readTree", vec![s()], o("com.fasterxml.jackson.databind.JsonNode"))
            .stub_method("readValue", vec![s(), o("java.lang.Class")], obj())
            .stub_method("writeValueAsString", vec![obj()], s());
    });
    b.class("com.fasterxml.jackson.databind.JsonNode", |c| {
        c.library();
        c.stub_method("get", vec![s()], o("com.fasterxml.jackson.databind.JsonNode"))
            .stub_method("path", vec![s()], o("com.fasterxml.jackson.databind.JsonNode"))
            .stub_method("asText", vec![], s());
    });

    b.class("com.beeframework.Bee", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("get", vec![s(), o("com.beeframework.Callback")], Type::Void)
            .stub_method("post", vec![s(), s(), o("com.beeframework.Callback")], Type::Void);
    });
    b.iface("com.beeframework.Callback", |c| {
        c.library();
        c.stub_method("onReceive", vec![s()], Type::Void);
    });

    b.class("com.loopj.android.http.AsyncHttpClient", |c| {
        c.library();
        c.stub_method("<init>", vec![], Type::Void)
            .stub_method("get", vec![s(), o("com.loopj.android.http.ResponseHandler")], Type::Void)
            .stub_method(
                "post",
                vec![s(), s(), o("com.loopj.android.http.ResponseHandler")],
                Type::Void,
            );
    });
    b.iface("com.loopj.android.http.ResponseHandler", |c| {
        c.library();
        c.stub_method("onSuccess", vec![s()], Type::Void);
    });

    b.class("com.github.kevinsawicki.http.HttpRequest", |c| {
        c.library();
        c.stub_method("get", vec![s()], o("com.github.kevinsawicki.http.HttpRequest"))
            .stub_method("post", vec![s()], o("com.github.kevinsawicki.http.HttpRequest"))
            .stub_method("put", vec![s()], o("com.github.kevinsawicki.http.HttpRequest"))
            .stub_method("body", vec![], s());
    });

    b.class("com.google.api.client.http.GenericUrl", |c| {
        c.library();
        c.stub_method("<init>", vec![s()], Type::Void);
    });
    b.class("com.google.api.client.http.HttpRequestFactory", |c| {
        c.library();
        c.stub_method(
            "buildGetRequest",
            vec![o("com.google.api.client.http.GenericUrl")],
            o("com.google.api.client.http.HttpRequest"),
        )
        .stub_method(
            "buildPostRequest",
            vec![o("com.google.api.client.http.GenericUrl"), obj()],
            o("com.google.api.client.http.HttpRequest"),
        );
    });
    b.class("com.google.api.client.http.HttpRequest", |c| {
        c.library();
        c.stub_method("execute", vec![], obj());
    });

    b.class("rx.Observable", |c| {
        c.library();
        c.stub_method("subscribe", vec![o("rx.Observer")], Type::Void);
    });
    b.iface("rx.Observer", |c| {
        c.library();
        c.stub_method("onNext", vec![obj()], Type::Void);
    });
}

/// The reference third-party library classes for the de-obfuscation
/// mapper: what Extractocol "knows" unobfuscated libraries look like.
/// Built once per process, on first use.
pub fn library_reference() -> &'static [Class] {
    static REFERENCE: OnceLock<Vec<Class>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let mut b = ApkBuilder::new("reference", "reference");
        libraries(&mut b);
        b.build().classes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use extractocol_ir::validate::validate_apk;

    #[test]
    fn stubs_install_and_validate() {
        let mut b = ApkBuilder::new("t", "t");
        install(&mut b);
        let apk = b.build();
        assert!(validate_apk(&apk).is_empty());
        assert!(apk.class("android.os.AsyncTask").is_some());
        assert!(apk.class("okhttp3.Call").unwrap().is_library);
        assert!(!apk.class("java.lang.StringBuilder").unwrap().is_library);
    }

    #[test]
    fn reference_is_library_only() {
        let classes = library_reference();
        assert!(classes.iter().all(|c| c.is_library));
        assert!(classes.iter().any(|c| c.name == "okhttp3.Request$Builder"));
    }
}
